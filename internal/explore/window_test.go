package explore_test

// Windowed-equivalence property suite: bounded-window (streaming)
// checking must be a pure memory optimization. The history-hashing
// reductions (snapshots and the post-crash state cache — they restore
// and hash retired records) run only without a window, so every
// comparison here switches them off on the unbounded baseline through
// the test seam and then demands the windowed run be observationally
// identical: same violation key set, same execution counts, and the
// same heap digest in every execution.
//
// The suite covers the digest program and the whole shipped .pm litmus
// corpus on every registered persistency backend, with windows small
// enough that retirement actually runs on these short traces (and the
// tests assert that it did). The paper's worked scenarios keep their
// verdicts under a window too (TestWindowedLitmusScenarioVerdicts, in
// the root package).

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/persist"
)

// unreducedOpts returns model-check options with every reduction a
// window turns off already off, so windowed and unbounded runs explore
// the identical schedule stream.
func unreducedOpts(model string, window, execs int) explore.Options {
	opt := explore.Options{
		Mode:       explore.ModelCheck,
		Executions: execs,
		Workers:    1,
		Model:      persist.Config{Name: model, Window: window},
	}
	return explore.WithoutStateCache(explore.WithoutSnapshots(opt))
}

// TestWindowEquivalenceAcrossModels: on every backend, a windowed
// model-check campaign of the digest program must match the unbounded
// campaign bit for bit — violation keys, execution counts, and the
// per-execution heap digests (every recovery-phase read folded into a
// hash). Window 4 is far below the program's trace length, so every
// execution runs multiple retirement sweeps.
func TestWindowEquivalenceAcrossModels(t *testing.T) {
	for _, model := range persist.Names() {
		model := model
		t.Run(model, func(t *testing.T) {
			run := func(window int) (*explore.Result, []uint64) {
				var digests []uint64
				var mu sync.Mutex
				res := explore.Run(digestProgram(&digests, &mu), unreducedOpts(model, window, 5000))
				return res, digests
			}
			bounded, bDigests := run(4)
			unbounded, uDigests := run(0)
			assertSameReducedOutcome(t, model, bounded, unbounded)
			if !reflect.DeepEqual(bDigests, uDigests) {
				t.Fatalf("%s: heap digests diverge (%d vs %d executions)\n  windowed:  %v\n  unbounded: %v",
					model, len(bDigests), len(uDigests), bDigests, uDigests)
			}
			if bounded.Retirements == 0 {
				t.Fatalf("%s: windowed campaign reports zero retirements — window machinery never engaged", model)
			}
			if unbounded.Retirements != 0 {
				t.Fatalf("%s: unbounded campaign reports %d retirements", model, unbounded.Retirements)
			}
		})
	}
}

// TestWindowEquivalenceOnLitmusPrograms: on every shipped .pm litmus
// program and every backend, the windowed search must report exactly
// the unbounded search's violations — the same reports, rendered, in
// first-found order — and execution count.
func TestWindowEquivalenceOnLitmusPrograms(t *testing.T) {
	entries, err := os.ReadDir(testdataDir)
	if err != nil {
		t.Fatal(err)
	}
	var retired int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pm") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(testdataDir, name))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range persist.Names() {
				t.Run(model, func(t *testing.T) {
					bounded := explore.Run(interp.New(name, prog), unreducedOpts(model, 4, 20000))
					unbounded := explore.Run(interp.New(name, prog), unreducedOpts(model, 0, 20000))
					assertSameReducedOutcome(t, name, bounded, unbounded)
					for i := range bounded.Violations {
						if sb, su := bounded.Violations[i].String(), unbounded.Violations[i].String(); sb != su {
							t.Fatalf("%s: violation %d differs\n  windowed:\n%s  unbounded:\n%s", name, i, sb, su)
						}
					}
					retired += bounded.Retirements
				})
			}
		})
	}
	if retired == 0 {
		t.Fatal("no litmus program triggered a retirement sweep — window machinery never engaged")
	}
}
