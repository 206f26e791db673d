package trace_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// TestIncrementalRetireMatchesFullMark runs seeded random windowed
// multi-crash executions under every backend, buffered and not, and
// checks every sweep against the full mark-and-sweep it replaced
// (retire_ref_test.go): the same pinned set, the same released set,
// the same thread rows, byLoc lists and SubExec.Stores, and a limbo
// that holds only stores a later sweep could release. Loads pick random
// candidates, so post-crash reads narrow the crash image (Resolve) and
// constrain the checker, whose constraint endpoints it holds; checksum
// regions defer cross-crash reads, which the checker pins. One world
// per configuration runs every seed, so the sweep state also crosses
// World.Reset.
func TestIncrementalRetireMatchesFullMark(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for _, model := range persist.Names() {
		for _, delayed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/delayed=%v", model, delayed), func(t *testing.T) {
				drain := 0
				if delayed {
					drain = 25
				}
				w := pmem.NewWorld(pmem.Config{
					Model:              persist.Config{Name: model, Window: 3, DelayedCommit: delayed},
					Chooser:            pmem.ChooseRandom,
					CrashTarget:        -1,
					RandomDrainPercent: drain,
				})
				// The first difference is reported at once, so a defect
				// that later crashes the execution still shows its cause.
				var seed int64
				failed := false
				trace.SetFullMarkCheck(w.M.Trace(), func(msg string) {
					if !failed {
						failed = true
						t.Errorf("seed %d: %s", seed, msg)
					}
				})
				sweeps, unlinked := 0, 0
				for seed = 1; seed <= int64(seeds); seed++ {
					w.Reset(seed)
					retireStream(w, rand.New(rand.NewSource(seed)))
					if failed {
						t.FailNow()
					}
					rs := w.M.Trace().Retired()
					sweeps += rs.Retirements
					unlinked += rs.RetiredStores
				}
				t.Logf("%d sweeps unlinked %d stores", sweeps, unlinked)
				if sweeps == 0 || unlinked == 0 {
					t.Fatalf("%d sweeps unlinked %d stores: the streams never exercised retirement", sweeps, unlinked)
				}
			})
		}
	}
}

// retireStream runs one random execution of two to four phases on w,
// each crashing at a random fence-like operation (or running out), over
// three threads and two cache lines.
func retireStream(w *pmem.World, rng *rand.Rand) {
	words := func() memmodel.Addr {
		return memmodel.Addr(0x1000 + 0x40*rng.Intn(2) + 8*rng.Intn(3))
	}
	phases := 2 + rng.Intn(3)
	for p := 0; p < phases; p++ {
		w.SetCrashTarget(rng.Intn(40))
		w.RunPhase(func(w *pmem.World) {
			ths := []*pmem.Thread{w.Thread(0), w.Thread(1), w.Thread(memmodel.ThreadID(2 + p))}
			open := make([]bool, len(ths))
			for i := 0; i < 120; i++ {
				k := rng.Intn(len(ths))
				th := ths[k]
				a := words()
				switch op := rng.Intn(20); {
				case op < 7:
					th.Store(a, memmodel.Value(rng.Intn(4)), "st")
				case op < 12:
					th.Load(a, "ld")
				case op < 13:
					th.Flush(a, "fl")
				case op < 14:
					th.FlushOpt(a, "flo")
				case op < 15:
					th.SFence("sf")
				case op < 16:
					th.MFence("mf")
				case op < 17:
					th.CAS(a, memmodel.Value(rng.Intn(4)), memmodel.Value(rng.Intn(4)), "cas")
				case op < 18:
					th.FAA(a, 1, "faa")
				default:
					if open[k] {
						th.EndChecksum(rng.Intn(2) == 0)
					} else {
						th.BeginChecksum()
					}
					open[k] = !open[k]
				}
			}
		})
		if p < phases-1 {
			w.Crash()
		}
	}
}
