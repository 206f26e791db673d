// Bounded-window (streaming) traces: the retirement machinery that lets
// an execution run millions of operations in bounded memory.
//
// Every Store and Event comes from the trace's arenas, in both modes.
// The classic pipeline records the whole trace and consumes it
// afterwards; nothing is released before Reset. Under a window, every
// `window` operations the machine runs a *retirement*: everything the
// remaining computation can still observe is pinned, every unpinned
// record is unlinked from the trace's index structures, and the sweep
// hands the slots of records nothing references any more back to the
// arenas' free lists, where the next allocations reuse them. A windowed
// execution's record memory therefore stops growing at its live
// high-water mark and never passes through the garbage collector.
//
// What must stay reachable is exactly the closure of the live roots
// under clock-vector resolution:
//
//   - the persistency model's candidate sources (crash-image epochs that
//     can still produce read candidates — among them the volatile
//     cache, the newest store per word of the live epoch — and store
//     buffers) — marked by the machine (persist.Retirable),
//   - the checker's deferred checksum-region reads — marked through the
//     extra-roots hook,
//   - initial stores and the per-thread clock-vector frontier,
//   - and, transitively, every store a pinned store's clock vector
//     resolves to: the checker's LOAD-PREV lower bounds call
//     SubExec.StoreByClock on the components of a read-from store's CV,
//     so a pinned store pins its CV closure (MarkRetireRoot).
//
// An unlinked store is not necessarily free. Pinned means "still
// indexed": some future query can reach the store. Held means "still
// referenced": an event the window retains points at it (Event.Store,
// Event.RF), an unpinned byLoc entry the first-per-thread rule keeps,
// or the checker (a constraint-row endpoint, marked through HoldStore).
// A held store keeps its slot, waiting in limbo, until a sweep finds
// nothing holding it; events are referenced by the log alone, so every
// event below the window is released at once. Released slots carry an
// odd generation stamp, and a build with the psanpoison tag makes
// every read path panic on one (Store.CheckLive).
//
// The sweep then rewrites the index structures so that every future
// query — LoadCandidates epoch walks, Next/firstPerThread, StoreByClock,
// SubEvents — returns exactly what it would have returned on the
// unbounded trace. Structures whose *positions* are meaningful (the
// event log, per-thread clock indexing, epoch store lists) keep their
// positions and take nil holes; structures that are scanned in order
// with no positional meaning (byLoc, SubExec.Stores, SubExec.events)
// are compacted. The per-list byLoc rule — keep a store if it is its
// thread's first appearance in the list or its Seq is at least the
// oldest pinned Seq in the list — preserves firstPerThread's output for
// every `after` value a future Next call can present (0, or the Seq of
// a pinned store to the same word).
//
// Retirement is O(live entries) per sweep and runs every `window` ops,
// so the amortized cost is a constant per operation; the verdict stream
// is proven identical to unbounded mode by the windowed-equivalence
// property suite (internal/explore/window_test.go) and guarded by the
// explorer, which runs snapshots and the post-crash state cache only
// without a window (they restore and hash retired history).
package trace

import (
	"fmt"
	"unsafe"

	"repro/internal/memmodel"
	"repro/internal/vclock"
)

// storeBytes/eventBytes size the released-memory estimates in Stats.
const (
	storeBytes = int64(unsafe.Sizeof(Store{}))
	eventBytes = int64(unsafe.Sizeof(Event{}))
)

// SetWindow switches the trace into bounded-window mode (n > 0) or back
// to the unbounded pipeline (n == 0). Call it between executions.
func (tr *Trace) SetWindow(n int) {
	if n < 0 {
		n = 0
	}
	tr.window = n
}

// WindowSize returns the configured retirement window (0: unbounded).
func (tr *Trace) WindowSize() int { return tr.window }

// newStore allocates one zeroed Store record from the arena: a released
// slot if the free list has one (its generation turns even again), the
// next fresh slot otherwise.
func (tr *Trace) newStore() *Store {
	s := tr.stores.alloc()
	s.gen += s.gen & 1
	return s
}

// newEvent allocates one Event record; see newStore.
func (tr *Trace) newEvent() *Event {
	ev := tr.evs.alloc()
	ev.gen += ev.gen & 1
	return ev
}

// releaseStore zeroes s and returns its slot to the free list with an
// odd generation.
func (tr *Trace) releaseStore(s *Store) {
	g := s.gen + 1
	*s = Store{gen: g}
	tr.stores.release(s)
	tr.releasedStores++
}

// releaseEvent zeroes ev and returns its slot to the free list.
func (tr *Trace) releaseEvent(ev *Event) {
	g := ev.gen + 1
	*ev = Event{gen: g}
	tr.evs.release(ev)
}

// CheckLive panics if s is a released slot, in a build with the
// psanpoison tag; in any other build it compiles to nothing. Read paths
// that follow store pointers a sweep could have released call it: the
// trace's own indexes, the crash image's candidate walk and the
// checker's diagnosis.
func (s *Store) CheckLive() {
	if poisonChecks && s != nil && s.gen&1 != 0 {
		panicReleased("store", s.gen)
	}
}

// CheckLive is the released-slot check for events; see Store.CheckLive.
func (ev *Event) CheckLive() {
	if poisonChecks && ev != nil && ev.gen&1 != 0 {
		panicReleased("event", ev.gen)
	}
}

func panicReleased(kind string, gen uint16) {
	panic(fmt.Sprintf("trace: read of a released %s slot (generation %d)", kind, gen))
}

// BeginRetire opens a retirement: it advances the mark generation (by
// two: markGen pins, markGen+1 holds) so every store is initially
// neither pinned nor held. The machine then marks its roots
// (MarkRetireRoot) and the checker its held stores (HoldStore), and
// FinishRetire sweeps.
func (tr *Trace) BeginRetire() {
	tr.markGen += 2
	tr.lastPinned = 0
}

// HoldStore marks st held for the running retirement: the sweep may
// unlink it from the index structures (unless it is also pinned), but
// keeps its slot out of the free list, because the caller still
// references it. Consumers that keep store pointers across operations
// without needing them indexed — the checker's constraint-row
// endpoints — hold them from the retirement's extra-roots hook.
func (tr *Trace) HoldStore(st *Store) {
	if st == nil {
		return
	}
	st.CheckLive()
	if st.mark != tr.markGen {
		st.mark = tr.markGen + 1
	}
}

// MarkRetireRoot pins st and, transitively, every store its clock
// vector resolves to in st's sub-execution. The closure is what keeps
// SubExec.StoreByClock answers stable: the checker resolves the CV
// components of any read-from store back to the stores that set them
// (the LOAD-PREV lower bounds), so those must survive as long as st can
// still be read. Marking is memoized per generation — a store's own CV
// component resolves back to itself, so the recursion terminates.
func (tr *Trace) MarkRetireRoot(st *Store) {
	if st == nil || st.mark == tr.markGen {
		return
	}
	st.CheckLive()
	st.mark = tr.markGen
	tr.lastPinned++
	if st.Initial || st.CV.IsBottom() {
		return
	}
	sub := tr.subs[st.SubExec]
	for i, n := 0, st.CV.Len(); i < n; i++ {
		if p := sub.StoreByClock(st.CV.Comp(i)); p != nil {
			tr.MarkRetireRoot(p)
		}
	}
}

// FinishRetire pins the structural roots the trace itself owns (initial
// stores and each sub-execution's thread clock-vector frontier), then
// sweeps every index structure, unlinking records no root can reach,
// and releases the slots of unlinked records nothing holds.
func (tr *Trace) FinishRetire() {
	gen := tr.markGen
	for _, s := range tr.initList {
		tr.MarkRetireRoot(s)
	}
	// The per-thread CV frontier resolves through StoreByClock exactly
	// like a store's vector does (Trace.Load joins read-from vectors into
	// it), so its closure is pinned for every sub-execution — older subs'
	// frontiers are frozen and were pinned by the previous sweep, which
	// is what keeps this walk from ever resolving to an unlinked entry.
	for _, sub := range tr.subs {
		for ri := range sub.threads {
			cv := &sub.threads[ri].cv
			for i, n := 0, cv.Len(); i < n; i++ {
				if p := sub.StoreByClock(cv.Comp(i)); p != nil {
					tr.MarkRetireRoot(p)
				}
			}
		}
	}

	// Sweep-work accounting: the entries this sweep walks. The machine
	// uses it to stretch the retirement cadence deterministically when
	// the live set outgrows the window, keeping the amortized sweep cost
	// per operation constant instead of quadratic (see pmem.World).
	work := 0

	// Event log: keep the last window entries. Indices are logical —
	// eventBase is the logical index of tr.events[0] — so the retired
	// prefix is physically dropped, not just nil-holed, and the log's
	// footprint stays at window entries. Only the log references an
	// event, so a retired event's slot is free at once.
	cutoff := tr.eventBase + len(tr.events) - tr.window
	if cutoff > tr.eventFloor {
		for i := tr.eventFloor - tr.eventBase; i < cutoff-tr.eventBase; i++ {
			if ev := tr.events[i]; ev != nil {
				tr.retired.countEvent(ev)
				tr.releaseEvent(ev)
			}
		}
		tr.eventFloor = cutoff
	}
	if drop := tr.eventFloor - tr.eventBase; drop > 0 {
		n := copy(tr.events, tr.events[drop:])
		clear(tr.events[n:])
		tr.events = tr.events[:n]
		tr.eventBase = tr.eventFloor
		work += n + drop
	}
	for _, ev := range tr.events {
		tr.HoldStore(ev.Store)
		tr.HoldStore(ev.RF)
	}

	for _, sub := range tr.subs {
		// Per-sub event index lists: drop retired indices, so SubEvents
		// and EachSubEvent never meet a hole and stay O(live).
		work += len(sub.events)
		evs := sub.events[:0]
		for _, idx := range sub.events {
			if idx >= tr.eventFloor {
				evs = append(evs, idx)
			}
		}
		sub.events = evs

		// Thread rows are positional (clock c lives at index c-base-1):
		// unpinned entries become nil holes, and the leading holes are
		// trimmed into base. The pin closure guarantees no future
		// StoreByClock query lands on a hole. Work counts the row's
		// logical length, trimmed prefix included, so the cadence the
		// machine derives from it does not depend on the trimming.
		for i := range sub.threads {
			r := &sub.threads[i]
			sts := r.stores
			work += int(r.base) + len(sts)
			for i, s := range sts {
				if s != nil && s.mark != gen {
					sts[i] = nil
					tr.retiredStores++
					tr.limbo = append(tr.limbo, s)
				}
			}
			lead := 0
			for lead < len(sts) && sts[lead] == nil {
				lead++
			}
			if lead > 0 {
				n := copy(sts, sts[lead:])
				clear(sts[n:])
				r.stores = sts[:n]
				r.base += vclock.Clock(lead)
			}
		}

		// Committed stores in TSO order: scanned, never indexed —
		// compact to the pinned ones. The newest committed store per
		// word is always pinned (it is its line's newest epoch entry),
		// so final-heap reconstructions keep their full address set.
		work += len(sub.Stores)
		sts := sub.Stores[:0]
		for _, s := range sub.Stores {
			if s.mark == gen {
				sts = append(sts, s)
			}
		}
		sub.Stores = sts

		// byLoc feeds firstPerThread; see the package comment for why
		// first-of-thread ∪ Seq ≥ oldest-pinned-Seq preserves its output.
		// A kept entry that is not pinned is held: Next still reads it.
		sub.byLoc.Each(func(_ uint64, lp *[]*Store) {
			list := *lp
			work += len(list)
			minPinned := vclock.Seq(int64(^uint64(0) >> 1))
			pinnedAny := false
			for _, s := range list {
				if s.mark == gen && s.Seq > 0 && s.Seq < minPinned {
					minPinned = s.Seq
					pinnedAny = true
				}
			}
			seen := tr.markScratch[:0]
			out := list[:0]
			for _, s := range list {
				first := true
				for _, t := range seen {
					if t == s.Thread {
						first = false
						break
					}
				}
				if first {
					seen = append(seen, s.Thread)
				}
				if first || (pinnedAny && s.Seq >= minPinned) {
					out = append(out, s)
					tr.HoldStore(s)
				}
			}
			tr.markScratch = seen[:0]
			clear(list[len(out):])
			*lp = out
		})
	}

	// Release every unlinked store nothing holds — this sweep's and the
	// ones earlier sweeps left in limbo; the held ones stay in limbo for
	// the next sweep to re-check. An unlinked store is never pinned
	// again (no root reaches it), so held is the only way to stay.
	keep := tr.limbo[:0]
	for _, s := range tr.limbo {
		if s.mark == gen+1 {
			keep = append(keep, s)
		} else {
			tr.releaseStore(s)
		}
	}
	clear(tr.limbo[len(keep):])
	tr.limbo = keep

	tr.lastSweepWork = work
	tr.retirements++
	if tr.lastPinned > tr.maxPinned {
		tr.maxPinned = tr.lastPinned
	}
}

// LastSweepWork reports how many index entries the most recent sweep
// walked, counting each thread row at its logical length (trimmed
// prefix included) — a deterministic proxy for the live-set size that
// the machine folds into its retirement cadence.
func (tr *Trace) LastSweepWork() int { return tr.lastSweepWork }

// RetireStats summarizes what windowed retirement has released so far
// in the current execution; all zeros in unbounded mode.
type RetireStats struct {
	// Retirements is the number of completed sweeps.
	Retirements int
	// RetiredEvents and RetiredStores count unlinked records;
	// ReleasedBytes is the record memory returned to the arenas' free
	// lists for reuse: every retired event, and every retired store
	// nothing held any more (a held store is released by a later sweep).
	RetiredEvents, RetiredStores int
	ReleasedBytes                int64
	// RetainedEvents counts the live (non-hole) entries of the event
	// log — the window occupancy a progress display wants.
	RetainedEvents int
	// PinnedRoots is the pin-closure size of the most recent sweep (the
	// stores marking kept live); MaxPinnedRoots is the largest closure
	// any sweep of this execution pinned. Both are deterministic — the
	// closure depends only on the execution's trace, never on timing.
	PinnedRoots    int
	MaxPinnedRoots int
}

// Retired reports the retirement totals of the current execution.
func (tr *Trace) Retired() RetireStats {
	if tr.window == 0 {
		return RetireStats{}
	}
	return RetireStats{
		Retirements:    tr.retirements,
		RetiredEvents:  tr.retired.Events,
		RetiredStores:  tr.retiredStores,
		ReleasedBytes:  int64(tr.retired.Events)*eventBytes + int64(tr.releasedStores)*storeBytes,
		RetainedEvents: tr.eventBase + len(tr.events) - tr.eventFloor,
		PinnedRoots:    tr.lastPinned,
		MaxPinnedRoots: tr.maxPinned,
	}
}

// countEvent folds one retired event into the per-kind retired totals.
func (s *Stats) countEvent(ev *Event) {
	s.Events++
	switch ev.Kind {
	case memmodel.OpStore:
		s.Stores++
	case memmodel.OpLoad:
		s.Loads++
	case memmodel.OpFlush, memmodel.OpFlushOpt:
		s.Flushes++
	case memmodel.OpSFence, memmodel.OpMFence:
		s.Fences++
	case memmodel.OpCAS, memmodel.OpFAA:
		s.RMWs++
	case memmodel.OpCrash:
		s.Crashes++
	}
}
