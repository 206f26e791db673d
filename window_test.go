package repro

import (
	"io"
	"testing"

	"repro/internal/litmus"
	"repro/internal/persist"
)

// TestWindowedLitmusScenarioVerdicts: the paper's worked scenarios must
// keep their pinned verdicts under a bounded window on every backend.
func TestWindowedLitmusScenarioVerdicts(t *testing.T) {
	for _, model := range persist.Names() {
		for _, s := range litmus.Scenarios() {
			model, s := model, s
			t.Run(model+"/"+s.Name, func(t *testing.T) {
				cfg := persist.Config{Name: model, Window: 4}
				violations := s.RunModel(io.Discard, cfg)
				if got, want := len(violations) > 0, s.Expect(cfg); got != want {
					t.Fatalf("%s under %s window=4: violation=%v, want %v", s.Name, model, got, want)
				}
			})
		}
	}
}
