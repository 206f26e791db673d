package persist

import (
	"testing"

	"repro/internal/memmodel"
)

// TestDelayedCommitDrainLoopAllocs checks that store buffers are reused:
// once warmed up, a delayed-commit execution that fills two threads'
// buffers with stores and flushes and empties them by single drains and
// fences allocates nothing: the buffers themselves, px86's pending
// flushes, ptsosyn's per-line flush markers, the trace indexes, the
// crash image and the stores' clock vectors (inline in the trace records
// for two threads) are all reused. Strict ignores DelayedCommit: its
// buffers stay empty throughout.
func TestDelayedCommitDrainLoopAllocs(t *testing.T) {
	for _, name := range allModels {
		m := MustNew(Config{Name: name, DelayedCommit: true}).(*machine)
		st, fl, fo, fe := m.Intern("store"), m.Intern("flush"), m.Intern("flushopt"), m.Intern("sfence")
		buffered := func(th memmodel.ThreadID) {
			if name == "strict" && bufferLen(m, th) != 0 {
				t.Fatalf("strict: thread %d buffered %d entries", th, bufferLen(m, th))
			}
		}
		const stores = 2 * 3 * 8
		run := func() {
			m.Reset()
			for round := 0; round < 3; round++ {
				for th := memmodel.ThreadID(1); th <= 2; th++ {
					for i := 0; i < 8; i++ {
						a := memmodel.Addr(0x100000 + 8*i)
						m.Store(th, a, memmodel.Value(i+1), st)
						buffered(th)
						if i%3 == 0 {
							m.FlushOpt(th, a, fo)
							buffered(th)
						}
					}
					m.Flush(th, 0x100000, fl)
					buffered(th)
					m.DrainOne(th)
					m.DrainOne(th)
				}
				for th := memmodel.ThreadID(1); th <= 2; th++ {
					m.SFence(th, fe)
					if bufferLen(m, th) != 0 {
						t.Fatalf("%s: thread %d buffer not drained by sfence", name, th)
					}
				}
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("%s: %v allocations per warmed-up execution of %d stores, want 0", name, got, stores)
		}
	}
}
