package persist_test

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// checkDenseIndexes compares the trace's per-word and per-thread
// indexes with what they must hold, recomputed from scratch: for every
// sub-execution, StoresTo and LastTo against a filter of its committed
// stores, and StoreByClock and ThreadCV against a replay of its event
// log.
func checkDenseIndexes(t *testing.T, name string, m persist.Model) {
	t.Helper()
	tr := m.Trace()
	for _, sub := range tr.SubExecs() {
		for _, w := range append(streamWords, 0x2000) {
			var want []*trace.Store
			for _, s := range sub.Stores() {
				if s.Addr == w {
					want = append(want, s)
				}
			}
			got := sub.StoresTo(w)
			if len(got) != len(want) {
				t.Fatalf("%s sub %d: StoresTo(%v) has %d stores, want %d", name, sub.Index, w, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s sub %d: StoresTo(%v)[%d] = %v, want %v", name, sub.Index, w, i, got[i], want[i])
				}
			}
			var last *trace.Store
			if len(want) > 0 {
				last = want[len(want)-1]
			}
			if got := sub.LastTo(w); got != last {
				t.Fatalf("%s sub %d: LastTo(%v) = %v, want %v", name, sub.Index, w, got, last)
			}
		}

		issued := map[memmodel.ThreadID][]*trace.Store{}
		cvs := map[memmodel.ThreadID]vclock.CV{}
		tr.EachSubEvent(sub.Index, func(ev *trace.Event) {
			if ev.Kind == memmodel.OpCrash {
				return
			}
			if ev.Store != nil {
				issued[ev.Thread] = append(issued[ev.Thread], ev.Store)
			}
			cvs[ev.Thread] = ev.CV
		})
		for _, th := range streamThreads {
			sts := issued[th]
			for c := vclock.Clock(0); c <= vclock.Clock(len(sts))+1; c++ {
				var want *trace.Store
				if c >= 1 && int(c) <= len(sts) {
					want = sts[c-1]
				}
				if got := sub.StoreByClock(th, c); got != want {
					t.Fatalf("%s sub %d: StoreByClock(%d, %d) = %v, want %v", name, sub.Index, th, c, got, want)
				}
			}
			if got := sub.ThreadCV(th); !got.Equal(cvs[th]) {
				t.Fatalf("%s sub %d: ThreadCV(%d) = %v, want %v", name, sub.Index, th, got, cvs[th])
			}
		}
	}
}

// TestDenseIndexesMatchReplay drives px86, ptsosyn and strict through
// the same seeded streams (runStream: stores, RMWs, flushes, fences,
// drains, crashes, snapshots restored repeatedly with trace rewinds, and
// resets), with and without delayed commit. After every operation each
// machine's trace indexes must match a recomputation from its committed
// stores and event log, and at every load px86 and ptsosyn must offer
// the same candidates.
func TestDenseIndexesMatchReplay(t *testing.T) {
	names := []string{"px86", "ptsosyn", "strict"}
	restoredAgain := 0
	for _, delayed := range []bool{false, true} {
		for seed := int64(1); seed <= 60; seed++ {
			ms := make([]persist.Model, len(names))
			for i, name := range names {
				ms[i] = persist.MustNew(persist.Config{Name: name, DelayedCommit: delayed})
			}
			runStream(ms, seed, 200, streamHooks{
				step: func() {
					for i, m := range ms {
						checkDenseIndexes(t, names[i], m)
					}
				},
				loaded: func(a memmodel.Addr, cands [][]persist.Candidate) {
					if !sameCandidates(cands[0], cands[1]) {
						t.Fatalf("delayed=%v seed %d: px86 candidates %v, ptsosyn %v", delayed, seed, cands[0], cands[1])
					}
					// Every candidate is a store to a; an initial store
					// is the word's one synthetic store, which a Rewind
					// to a mark taken before it was created must forget.
					for i, cs := range cands {
						for _, c := range cs {
							if c.Store.Addr != a || c.Store.Initial != (c.Store.ID < 0) || c.Store.ID == 0 {
								t.Fatalf("delayed=%v seed %d: %s offers %v for a load of %v", delayed, seed, names[i], c.Store, a)
							}
						}
					}
				},
				restored: func(again bool) {
					if again {
						restoredAgain++
					}
				},
			})
		}
	}
	if restoredAgain == 0 {
		t.Fatal("no stream restored a snapshot twice")
	}
}
