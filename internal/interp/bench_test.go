package interp

import (
	"os"
	"testing"

	"repro/internal/lang"
	"repro/internal/pmem"
)

// BenchmarkInterpFigure2 runs testdata/figure2.pm as one execution per
// op on a reused world: its pre-crash phase, the crash and its recovery
// phase. Beside the world's own cost it reports interp-allocs/op, the
// allocations per execution beyond those of the same execution with
// the interpreter taken out: a program whose phases only make the
// world's inline thread, as each figure2 phase does before running its
// body. A compiled program allocates nothing while it runs, so the
// metric reads 0.
func BenchmarkInterpFigure2(b *testing.B) {
	src, err := os.ReadFile("../../testdata/figure2.pm")
	if err != nil {
		b.Fatal(err)
	}
	parsed, err := lang.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	phases := New("figure2", parsed).Phases()
	bare := make([]func(*pmem.World), len(phases))
	for i := range bare {
		bare[i] = func(w *pmem.World) { w.Thread(0) }
	}
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1})
	run := func(phases []func(*pmem.World)) {
		w.Reset(1)
		for i, phase := range phases {
			w.SetCrashTarget(-1)
			w.RunPhase(phase)
			if i < len(phases)-1 {
				w.Crash()
			}
		}
	}
	interp := testing.AllocsPerRun(100, func() { run(phases) }) - testing.AllocsPerRun(100, func() { run(bare) })
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		run(phases)
	}
	b.ReportMetric(interp, "interp-allocs/op")
}
