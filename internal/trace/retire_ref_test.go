package trace

import (
	"fmt"
	"slices"

	"repro/internal/vclock"
)

// The full mark-and-sweep below is the retirement the incremental one
// replaced: every sweep pinned the closure of all live roots from
// scratch and walked every index structure. It runs here as a
// prediction — it reads the trace inside a sweep, once the sweep's
// transient roots are in and before anything is unlinked, and computes
// what the full sweep would leave without touching the trace — so
// TestIncrementalRetireMatchesFullMark can compare the incremental
// sweep's outcome with it at every sweep.

// fullMark is one sweep's prediction.
type fullMark struct {
	pinned map[*Store]bool
	// live are the stores the sweep starts with: initial stores and
	// every thread-row entry.
	live []*Store
	// lists and rows are the predicted byLoc lists and thread rows,
	// stores the predicted SubExec.Stores, per sub-execution.
	lists  []map[uint64][]*Store
	rows   []map[int64][]*Store
	stores [][]*Store
	held   map[*Store]bool
}

// fullMarkCheck predicts the running sweep's outcome and returns the
// check that compares the sweep's actual outcome with the prediction,
// reporting every difference through fail.
func (tr *Trace) fullMarkCheck(fail func(string)) func() {
	fm := &fullMark{pinned: map[*Store]bool{}, held: map[*Store]bool{}}
	var mark func(*Store)
	mark = func(s *Store) {
		if s == nil || fm.pinned[s] {
			return
		}
		fm.pinned[s] = true
		cv := tr.StoreCV(s)
		if s.Initial || cv.IsBottom() {
			return
		}
		sub := tr.subs[s.SubExec]
		for i, n := 0, cv.Len(); i < n; i++ {
			mark(sub.StoreByClock(cv.Comp(i)))
		}
	}
	// Roots: the crash image's sticky pins, the roots callbacks', the
	// initial stores and every sub-execution's clock-vector frontier.
	fm.live = append(fm.live, tr.refs(tr.initList)...)
	for _, sub := range tr.subs {
		for _, r := range sub.threads {
			for _, s := range tr.refs(r.stores) {
				if s != nil {
					fm.live = append(fm.live, s)
				}
			}
		}
	}
	for _, s := range fm.live {
		if s.Initial || s.mark&pinImage != 0 {
			mark(s)
		}
	}
	for _, s := range tr.refs(tr.roots) {
		mark(s)
	}
	for _, sub := range tr.subs {
		for _, r := range sub.threads {
			for i, n := 0, r.cv.Len(); i < n; i++ {
				mark(sub.StoreByClock(r.cv.Comp(i)))
			}
		}
	}

	// Sweep: the event log, rows, committed stores and byLoc lists, as
	// the full sweep rewrote them.
	floor := max(tr.eventFloor, tr.eventBase+len(tr.events)-tr.window)
	for _, ev := range tr.events[floor-tr.eventBase:] {
		for _, s := range []*Store{ev.Store, ev.RF} {
			if s != nil {
				fm.held[s] = true
			}
		}
	}
	// parked are the unlinked stores their byLoc lists still keep.
	var parked []*Store
	for _, sub := range tr.subs {
		rows := map[int64][]*Store{}
		var committed []*Store
		for _, r := range sub.threads {
			row := make([]*Store, r.base, int(r.base)+len(r.stores))
			for _, s := range tr.refs(r.stores) {
				if !fm.pinned[s] {
					s = nil
				}
				row = append(row, s)
				if s != nil && s.Seq > 0 {
					committed = append(committed, s)
				}
			}
			rows[int64(r.t)] = row
		}
		slices.SortFunc(committed, func(a, b *Store) int { return int(a.Seq - b.Seq) })
		lists := map[uint64][]*Store{}
		sub.byLoc.Each(func(k uint64, l *wordList) {
			list := tr.list(*l)
			minPinned := vclock.Seq(int64(^uint64(0) >> 1))
			for _, s := range list {
				if fm.pinned[s] && s.Seq < minPinned {
					minPinned = s.Seq
				}
			}
			var seen []int64
			var out []*Store
			for _, s := range list {
				if s.mark&unlinked != 0 {
					parked = append(parked, s)
				}
				first := !slices.Contains(seen, int64(s.Thread))
				if first {
					seen = append(seen, int64(s.Thread))
				}
				if first || s.Seq >= minPinned {
					out = append(out, s)
					fm.held[s] = true
				}
			}
			lists[k] = out
		})
		fm.rows = append(fm.rows, rows)
		fm.lists = append(fm.lists, lists)
		fm.stores = append(fm.stores, committed)
	}
	// The checker's holds came in with the roots callbacks.
	gens := map[*Store]uint16{}
	for _, s := range slices.Concat(tr.refs(tr.limbo), parked, fm.live) {
		if uint32(s.mark>>holdShift) == tr.holdGen {
			fm.held[s] = true
		}
		gens[s] = s.gen
	}
	return func() { tr.compareFullMark(fm, gens, fail) }
}

// compareFullMark reports every difference between the sweep that just
// ended and the prediction.
func (tr *Trace) compareFullMark(fm *fullMark, gens map[*Store]uint16, fail func(string)) {
	failf := func(format string, args ...any) { fail(fmt.Sprintf(format, args...)) }
	if tr.lastPinned != len(fm.pinned) {
		failf("sweep %d pinned %d stores, full mark %d", tr.retirements, tr.lastPinned, len(fm.pinned))
	}
	// Released: the unlinked stores nothing holds, this sweep's, limbo's
	// and the parked ones; the rest keep their slots, and none is
	// released twice.
	for s, g := range gens {
		wantFree := !fm.pinned[s] && !fm.held[s]
		if s.gen-g > 1 {
			failf("sweep %d: store %v released %d times", tr.retirements, s, s.gen-g)
			continue
		}
		if gotFree := s.gen != g; gotFree != wantFree {
			failf("sweep %d: store %v released=%v, full mark %v", tr.retirements, s, gotFree, wantFree)
			continue
		}
		if !wantFree && s.pinned() != fm.pinned[s] {
			failf("sweep %d: store %v pinned=%v, full mark %v", tr.retirements, s, s.pinned(), fm.pinned[s])
		}
	}
	// Limbo holds each store a later sweep could release once: off its
	// list or never committed, and held by this sweep. Every other
	// unlinked store still alive is parked on its byLoc list.
	limbo := map[*Store]bool{}
	for _, s := range tr.refs(tr.limbo) {
		switch {
		case limbo[s]:
			failf("sweep %d: store %v is in limbo twice", tr.retirements, s)
		case s.Seq > 0 && s.mark&offList == 0:
			failf("sweep %d: store %v is in limbo but on its byLoc list", tr.retirements, s)
		case uint32(s.mark>>holdShift) != tr.holdGen:
			failf("sweep %d: store %v is in limbo but not held", tr.retirements, s)
		}
		limbo[s] = true
	}
	onList := map[*Store]bool{}
	for _, sub := range tr.subs {
		sub.byLoc.Each(func(_ uint64, l *wordList) {
			for _, s := range tr.list(*l) {
				onList[s] = true
			}
		})
	}
	for s, g := range gens {
		if s.gen != g || s.mark&unlinked == 0 {
			continue
		}
		if bit := s.mark&inLimbo != 0; bit != limbo[s] {
			failf("sweep %d: store %v in limbo=%v, its mark says %v", tr.retirements, s, limbo[s], bit)
		}
		if !limbo[s] && !onList[s] {
			failf("sweep %d: unlinked store %v is neither in limbo nor on its byLoc list", tr.retirements, s)
		}
	}
	for i, sub := range tr.subs {
		for _, r := range sub.threads {
			want := fm.rows[i][int64(r.t)]
			for c := 1; c <= len(want); c++ {
				if got := sub.StoreByClock(r.t, vclock.Clock(c)); got != want[c-1] {
					failf("sweep %d: sub %d thread %d clock %d: %v, full mark %v", tr.retirements, i, r.t, c, got, want[c-1])
				}
			}
			if n := int(r.base) + len(r.stores); n != len(want) {
				failf("sweep %d: sub %d thread %d row spans %d clocks, full mark %d", tr.retirements, i, r.t, n, len(want))
			}
		}
		if got := sub.Stores(); !slices.Equal(got, fm.stores[i]) {
			failf("sweep %d: sub %d Stores %v, full mark %v", tr.retirements, i, got, fm.stores[i])
		}
		n := 0
		sub.byLoc.Each(func(k uint64, l *wordList) {
			n++
			if got, want := tr.list(*l), fm.lists[i][k]; !slices.Equal(got, want) {
				failf("sweep %d: sub %d word %#x byLoc %v, full mark %v", tr.retirements, i, k<<3, got, want)
			}
		})
		if n != len(fm.lists[i]) {
			failf("sweep %d: sub %d has %d byLoc lists, full mark %d", tr.retirements, i, n, len(fm.lists[i]))
		}
	}
}
