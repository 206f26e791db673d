// Bounded-window (streaming) traces: the retirement machinery that lets
// an execution run millions of operations in bounded memory.
//
// The classic pipeline records the whole trace in per-trace arenas and
// consumes it afterwards; nothing is ever released before Reset. Under a
// window, records are GC-heap allocated instead, and every `window`
// operations the machine runs a *retirement*: everything the remaining
// computation can still observe is pinned, and every unpinned record is
// unlinked from the trace's index structures so the garbage collector
// can reclaim it.
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
// property suite (window_test.go) and guarded by the explorer, which
// forces snapshots, DPOR, and the post-crash state cache off (their
// keys hash retired history).
package trace

import (
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
// to the unbounded arena pipeline (n == 0). Call it on a fresh or Reset
// trace only: mixing arena-allocated and heap-allocated records within
// one execution would let the sweep unlink records the arena still owns.
func (tr *Trace) SetWindow(n int) {
	if n < 0 {
		n = 0
	}
	tr.window = n
}

// WindowSize returns the configured retirement window (0: unbounded).
func (tr *Trace) WindowSize() int { return tr.window }

// newStore allocates one Store record: from the arena in unbounded mode
// (recycled wholesale by Reset), from the GC heap under a window (so
// retirement can release it individually).
func (tr *Trace) newStore() *Store {
	if tr.window > 0 {
		return &Store{}
	}
	return tr.stores.alloc()
}

// newEvent allocates one Event record; see newStore.
func (tr *Trace) newEvent() *Event {
	if tr.window > 0 {
		return &Event{}
	}
	return tr.evs.alloc()
}

// BeginRetire opens a retirement: it advances the mark generation so
// every store is initially unpinned. The machine then marks its roots
// (MarkRetireRoot), and FinishRetire sweeps.
func (tr *Trace) BeginRetire() {
	tr.markGen++
	tr.lastPinned = 0
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
	st.mark = tr.markGen
	tr.lastPinned++
	if st.Initial || st.CV.IsBottom() {
		return
	}
	sub := tr.subs[st.SubExec]
	st.CV.ForEach(func(t memmodel.ThreadID, c vclock.Clock) {
		if p := sub.StoreByClock(t, c); p != nil {
			tr.MarkRetireRoot(p)
		}
	})
}

// FinishRetire pins the structural roots the trace itself owns (initial
// stores and each sub-execution's thread clock-vector frontier), then
// sweeps every index structure, unlinking records no root can reach.
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
		sub := sub
		for _, r := range sub.threads {
			r.cv.ForEach(func(t memmodel.ThreadID, c vclock.Clock) {
				if p := sub.StoreByClock(t, c); p != nil {
					tr.MarkRetireRoot(p)
				}
			})
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
	// footprint stays at window entries.
	cutoff := tr.eventBase + len(tr.events) - tr.window
	if cutoff > tr.eventFloor {
		for i := tr.eventFloor - tr.eventBase; i < cutoff-tr.eventBase; i++ {
			if ev := tr.events[i]; ev != nil {
				tr.retired.countEvent(ev)
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

		// Thread rows are positional (clock c lives at index c-1): unpinned
		// entries become nil holes. The pin closure guarantees no future
		// StoreByClock query lands on one.
		for _, r := range sub.threads {
			sts := r.stores
			work += len(sts)
			for i, s := range sts {
				if s != nil && s.mark != gen {
					sts[i] = nil
					tr.retiredStores++
				}
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
				}
			}
			tr.markScratch = seen[:0]
			clear(list[len(out):])
			*lp = out
		})
	}
	tr.lastSweepWork = work
	tr.retirements++
	if tr.lastPinned > tr.maxPinned {
		tr.maxPinned = tr.lastPinned
	}
}

// LastSweepWork reports how many index entries the most recent sweep
// walked — a deterministic proxy for the live-set size that the machine
// folds into its retirement cadence.
func (tr *Trace) LastSweepWork() int { return tr.lastSweepWork }

// RetireStats summarizes what windowed retirement has released so far
// in the current execution; all zeros in unbounded mode.
type RetireStats struct {
	// Retirements is the number of completed sweeps.
	Retirements int
	// RetiredEvents and RetiredStores count unlinked records;
	// ReleasedBytes estimates the record memory they gave back.
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
		ReleasedBytes:  int64(tr.retired.Events)*eventBytes + int64(tr.retiredStores)*storeBytes,
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
