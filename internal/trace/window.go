// Bounded-window (streaming) traces: the retirement machinery that lets
// an execution run millions of operations in bounded memory.
//
// Every Store and Event comes from the trace's arenas, in both modes.
// The classic pipeline records the whole trace and consumes it
// afterwards; nothing is released before Reset. Under a window, every
// `window` operations the machine runs a *retirement*: every record the
// remaining computation can still observe stays pinned, every record
// that lost its last pin since the previous sweep is unlinked from the
// trace's index structures, and the sweep hands the slots of records
// nothing references any more back to the arenas' free lists, where the
// next allocations reuse them. A windowed execution's record memory
// therefore stops growing at its live high-water mark: no record is
// ever handed to the garbage collector to free.
//
// Nor does the collector have to scan what stays. A long execution
// keeps a live set of the order of 10^5 stores — the crash image pins
// every store a future load could still read — and the collector marks
// the live heap on every cycle, so a pointer per retained reference
// would make each cycle re-mark that whole set. A Store record holds no
// pointer (its clock vector is inline, or in the trace's spill table
// when it has more than four components), and every store reference the
// trace and the crash image keep is a StoreRef handle, an int32 slot
// number resolved through the arena: the thread rows, the per-word
// lists (threaded through the records' next handles, so a word's list
// is no heap object of its own), the commit lists, the initial stores,
// limbo, the sweep's root and unpin lists and the arena's free list,
// and in package persist the crash image's epoch histories, whose line
// states and epochs live in arrays indexed by int32. Store chunks are
// therefore memory the collector never scans, and the retained
// structures are a few large objects instead of one per word, line and
// epoch (TestRetainedRecordsArePointerFree). Transient pointers — a
// resolved *Store handed to a caller, a Next result, a candidate, a
// store-buffer entry — stay pointers: arena chunks never move, so a
// resolved pointer is valid as long as its handle. Events still hold pointers; under a window the
// log keeps only about twice the window's worth of them.
//
// What must stay reachable is exactly the closure of the live roots
// under clock-vector resolution:
//
//   - the persistency model's crash-image candidates (every entry a
//     future load can still read through the image, among them the
//     volatile cache, the newest store per word of the live epoch) —
//     sticky pins the image takes with Pin and drops with Unpin when
//     its kill rule proves an entry dead (persist.Image.Retire);
//   - initial stores, pinned for the whole execution;
//   - the transient roots of each sweep: store-buffer entries, the
//     checker's deferred checksum-region reads (both through Retire's
//     roots callbacks) and the per-thread clock-vector frontier;
//   - and, transitively, every store a pinned store's clock vector
//     resolves to: the checker's LOAD-PREV lower bounds call
//     SubExec.StoreByClock on the components of a read-from store's CV,
//     so a pinned store pins its CV closure.
//
// Pins are incremental. Each pinned store holds one reference on every
// other store its clock vector resolves to; those targets happen before
// it, so the references form a DAG, and a store is pinned exactly while
// it has a pin of its own or a reference. A store that gains its first
// pin takes its references; one that loses its last releases them, and
// the release cascades. The transient roots are diffed against the
// previous sweep's. Pins are taken eagerly but released only inside a
// sweep, after every pin of the sweep is in, so a count never touches
// zero on its way to a positive value. A store that loses its last pin
// is never pinned again: nothing that can still reach it exists.
//
// An unlinked store is not necessarily free. Pinned means "still
// indexed": some future query can reach the store. Held means "still
// referenced": an event the window retains points at it (Event.Store,
// Event.RF), its word's byLoc list keeps it under the first-per-thread
// rule, or the checker holds it (a constraint-row endpoint, marked
// through HoldStore). A store its byLoc list keeps is parked: only a
// refilter of that list can end the hold, and the refilter that drops
// the store puts it in limbo. A store in limbo keeps its slot while a
// sweep finds an event or the checker holding it; events are referenced
// by the log alone, so every event below the window is released at once.
// Released slots carry an odd generation stamp, and a build with the
// psanpoison tag makes every read path panic on one: resolving a stale
// handle (Trace.StoreAt) or following a stale pointer
// (Store.CheckLive).
//
// The sweep rewrites only what the unpins touched, so that every future
// query — LoadCandidates epoch walks, Next/firstPerThread, StoreByClock,
// SubEvents — returns exactly what it would have returned on the
// unbounded trace. Thread rows are positional (per-thread clock
// indexing): an unlinked store leaves a NoStore hole, and leading holes are
// trimmed into the row's clock base. The byLoc lists of the unlinked
// stores' words are re-filtered: a list keeps a store if it is its
// thread's first appearance in the list or its Seq is at least the
// oldest pinned Seq in the list, which preserves firstPerThread's output
// for every `after` value a future Next call can present (0, or the Seq
// of a pinned store to the same word). SubExec.Stores is derived from
// the byLoc lists once a sweep has run.
//
// A sweep therefore costs O(new records + unlinked stores + limbo +
// window events), not O(live set), and limbo holds only stores some
// future sweep can free, so the machine sweeps every `window`
// operations. The verdict stream is proven identical to unbounded mode
// by the windowed-equivalence property suite
// (internal/explore/window_test.go), the incremental sweep identical to
// a full mark-and-sweep by TestIncrementalRetireMatchesFullMark, and the
// explorer runs snapshots and the post-crash state cache only without a
// window (they restore and hash retired history).
package trace

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/memmodel"
	"repro/internal/vclock"
)

// storeBytes/eventBytes size the released-memory estimates in Stats.
const (
	storeBytes = int64(unsafe.Sizeof(Store{}))
	eventBytes = int64(unsafe.Sizeof(Event{}))
)

// Store.mark layout. The low 24 bits count the references pinned
// stores hold on the store; the flags above them record its pins and
// its place in the sweep; the top 32 bits are the hold stamp.
const (
	refMask uint64 = 1<<24 - 1
	// pinImage is the sticky pin of Pin/Unpin (a crash-image candidate).
	pinImage uint64 = 1 << 24
	// pinInitial pins an initial store for the whole execution.
	pinInitial uint64 = 1 << 25
	// pinRoot marks a transient root of the latest sweep; rootNext marks
	// one of the running sweep while the two root sets are diffed.
	pinRoot  uint64 = 1 << 26
	rootNext uint64 = 1 << 27
	// holdsRefs: the store holds its references, which every pinned
	// store does from the moment it is pinned.
	holdsRefs uint64 = 1 << 28
	// unlinked: the store left its thread row (it is parked, in limbo
	// or free); offList: its byLoc list dropped it; inLimbo: it is in
	// tr.limbo.
	unlinked uint64 = 1 << 29
	offList  uint64 = 1 << 30
	inLimbo  uint64 = 1 << 31

	pinMask   = refMask | pinImage | pinInitial | pinRoot
	holdShift = 32
	holdMask  = ^(uint64(1)<<holdShift - 1)
)

// pinned reports whether s is pinned: a pin of its own or a reference.
func (s *Store) pinned() bool { return s.mark&pinMask != 0 }

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
	i, s := tr.stores.alloc()
	s.gen += s.gen & 1
	s.ref = StoreRef(i + 1)
	return s
}

// setCV gives a new store its clock vector: inline when it fits, else
// in a spill-table entry.
func (tr *Trace) setCV(s *Store, cv vclock.CV) {
	if w, ok := cv.Words(); ok {
		s.cv = w
		return
	}
	if k := len(tr.spillFree); k > 0 {
		i := tr.spillFree[k-1]
		tr.spillFree = tr.spillFree[:k-1]
		tr.spills[i] = cv
		s.cv = vclock.Spilled(i)
		return
	}
	s.cv = vclock.Spilled(uint32(len(tr.spills)))
	tr.spills = append(tr.spills, cv)
}

// newEvent allocates one zeroed Event record: a released slot, which
// kept its fields when it was released, is zeroed here (its generation
// turns even again), a fresh one is zero already.
func (tr *Trace) newEvent() *Event {
	if k := len(tr.evFree); k > 0 {
		ev := tr.evFree[k-1]
		tr.evFree = tr.evFree[:k-1]
		*ev = Event{gen: ev.gen + 1}
		return ev
	}
	_, ev := tr.evs.alloc()
	return ev
}

// releaseStore zeroes s and returns its slot, and its spill-table entry
// if it has one, to the free lists; the slot gets an odd generation.
func (tr *Trace) releaseStore(s *Store) {
	if i, ok := s.cv.SpillIndex(); ok {
		tr.spills[i] = vclock.CV{}
		tr.spillFree = append(tr.spillFree, i)
	}
	i, g := int32(s.ref)-1, s.gen+1
	*s = Store{gen: g}
	tr.stores.release(i)
	tr.releasedStores++
}

// releaseEvents counts retired events by kind and returns their slots
// to the free list with an odd generation. A slot keeps its fields
// until newEvent reuses it, when the write touches it anyway: a sweep
// releases thousands of events whose memory it would otherwise clear
// cold.
func (tr *Trace) releaseEvents(evs []*Event) {
	for _, ev := range evs {
		tr.retiredKinds[ev.Kind]++
		ev.gen++
	}
	tr.evFree = append(tr.evFree, evs...)
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

// Pin gives st a sticky pin, which it keeps across sweeps until Unpin.
// The crash image pins every entry a future load can still read through
// it. A store has at most one sticky pin.
func (tr *Trace) Pin(st *Store) {
	st.mark |= pinImage
	tr.take(st)
}

// Unpin drops st's sticky pin. If nothing else pins st, the next sweep
// releases its references and unlinks it.
func (tr *Trace) Unpin(st *Store) {
	st.mark &^= pinImage
	if !st.pinned() {
		tr.unpinned = append(tr.unpinned, st.ref)
	}
}

// pinRoot collects one transient root of the running sweep; Retire
// hands it to its roots callbacks.
func (tr *Trace) pinRoot(st *Store) {
	if st == nil || st.mark&rootNext != 0 {
		return
	}
	st.CheckLive()
	st.mark |= rootNext
	tr.roots = append(tr.roots, st.ref)
}

// HoldStore marks st held for the running retirement: the sweep may
// unlink it from the index structures (unless it is pinned), but keeps
// its slot out of the free list, because the caller still references
// it. Consumers that keep store pointers across operations without
// needing them indexed — the checker's constraint-row endpoints — hold
// them from a roots callback of every Retire.
func (tr *Trace) HoldStore(st *Store) {
	if st == nil {
		return
	}
	st.CheckLive()
	st.mark = st.mark&^holdMask | uint64(tr.holdGen)<<holdShift
}

// take makes a pinned st hold its references, and each target that
// gains its first pin that way take its own: every store st's clock
// vector resolves to in st's sub-execution, st itself excepted.
func (tr *Trace) take(st *Store) {
	if st.mark&holdsRefs != 0 {
		return
	}
	st.CheckLive()
	if poisonChecks && st.mark&unlinked != 0 {
		panic(fmt.Sprintf("trace: pin of unlinked store %v", st))
	}
	st.mark |= holdsRefs
	tr.pinnedNow++
	stack := append(tr.pinStack[:0], st.ref)
	for len(stack) > 0 {
		p := tr.StoreAt(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if p.Initial {
			continue
		}
		sub := tr.subs[p.SubExec]
		for i, n := 0, tr.CVLen(p); i < n; i++ {
			t, c := tr.CVComp(p, i)
			if t == p.Thread {
				continue
			}
			if q := sub.StoreByClock(t, c); q != nil {
				if q.mark&refMask == refMask {
					panic(fmt.Sprintf("trace: %v referenced by more than %d pinned stores", q, refMask))
				}
				q.mark++
				if q.mark&holdsRefs == 0 {
					q.mark |= holdsRefs
					tr.pinnedNow++
					stack = append(stack, q.ref)
				}
			}
		}
	}
	tr.pinStack = stack[:0]
}

// drop releases the references of every store in tr.unpinned that is
// no longer pinned, cascading to each target that loses its last one
// (see take for which stores those are); every store it unpins joins
// tr.unpinned.
func (tr *Trace) drop() {
	stack := tr.pinStack[:0]
	for _, r := range tr.unpinned {
		if s := tr.StoreAt(r); !s.pinned() && s.mark&holdsRefs != 0 {
			s.mark &^= holdsRefs
			tr.pinnedNow--
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		p := tr.StoreAt(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if p.Initial {
			continue
		}
		sub := tr.subs[p.SubExec]
		for i, n := 0, tr.CVLen(p); i < n; i++ {
			t, c := tr.CVComp(p, i)
			if t == p.Thread {
				continue
			}
			if q := sub.StoreByClock(t, c); q != nil {
				q.mark--
				if !q.pinned() {
					q.mark &^= holdsRefs
					tr.pinnedNow--
					stack = append(stack, q.ref)
					tr.unpinned = append(tr.unpinned, q.ref)
				}
			}
		}
	}
	tr.pinStack = stack[:0]
}

// RecentCommits returns the stores committed in the current
// sub-execution since the last sweep (all of them before the first).
// The crash image finds the cache lines that grew with it.
func (tr *Trace) RecentCommits() []StoreRef { return tr.Current().stores }

// Retire runs one retirement sweep. Each roots callback pins this
// sweep's transient roots through pin (store buffers, the checker's
// deferred reads) and may hold stores with HoldStore; sticky pins
// (Pin/Unpin) are already in. The trace adds its own roots — initial
// stores and every sub-execution's thread clock-vector frontier —
// releases the references of everything that lost its pins, unlinks the
// stores that lost them (and the new stores that never had one), and
// releases the records nothing holds.
func (tr *Trace) Retire(roots ...func(pin func(*Store))) {
	if tr.holdGen++; tr.holdGen == 0 {
		tr.holdGen = 1
	}
	for _, r := range tr.initList[tr.initSwept:] {
		s := tr.StoreAt(r)
		s.mark |= pinInitial
		tr.take(s)
	}
	tr.initSwept = len(tr.initList)

	// Transient roots: the callbacks', then the clock-vector frontier,
	// which resolves through StoreByClock exactly like a store's vector
	// does (Trace.Load joins read-from vectors into it).
	for _, f := range roots {
		if f != nil {
			f(tr.pinRootFn)
		}
	}
	var check func()
	if tr.refCheck != nil {
		check = tr.refCheck() // sees the callbacks' roots, derives the rest
	}
	for _, sub := range tr.subs {
		for ri := range sub.threads {
			cv := &sub.threads[ri].cv
			for i, n := 0, cv.Len(); i < n; i++ {
				tr.pinRoot(sub.StoreByClock(cv.Comp(i)))
			}
		}
	}
	for _, r := range tr.roots {
		if s := tr.StoreAt(r); s.mark&pinRoot == 0 {
			s.mark |= pinRoot
			tr.take(s)
		}
	}
	for _, r := range tr.prevRoots {
		if s := tr.StoreAt(r); s.mark&rootNext == 0 {
			s.mark &^= pinRoot
			if !s.pinned() {
				tr.unpinned = append(tr.unpinned, r)
			}
		}
	}
	for _, r := range tr.roots {
		tr.StoreAt(r).mark &^= rootNext
	}
	tr.prevRoots, tr.roots = tr.roots, tr.prevRoots[:0]

	// SubExec.stores holds the commits since the last sweep; from now on
	// Stores derives the list from the byLoc lists.
	for _, sub := range tr.subs {
		sub.stores = sub.stores[:0]
		sub.swept = true
	}

	// Unlink what lost its pins: the stores dropped since the last sweep
	// and the new stores nothing pinned. Every pin of the sweep is final
	// from here on.
	tr.drop()
	for _, r := range tr.unpinned {
		if s := tr.StoreAt(r); !s.pinned() && s.mark&unlinked == 0 {
			tr.unlink(s)
		}
	}
	tr.unpinned = tr.unpinned[:0]
	for _, sub := range tr.subs[tr.sweptSub:] {
		for ri := range sub.threads {
			r := &sub.threads[ri]
			for i := int(r.swept - r.base); i < len(r.stores); i++ {
				if ref := r.stores[i]; ref != NoStore {
					if s := tr.StoreAt(ref); !s.pinned() {
						tr.unlink(s)
					}
				}
			}
			r.swept = r.base + vclock.Clock(len(r.stores))
		}
	}
	tr.sweptSub = len(tr.subs) - 1
	for _, sub := range tr.subs {
		for ri := range sub.threads {
			sub.threads[ri].trim()
		}
	}

	// Event log: keep the last window entries. Indices are logical —
	// eventBase is the logical index of tr.events[0] — so the retired
	// prefix is physically dropped, not just nil-holed, and right after
	// a sweep the log holds window entries (about twice that between
	// sweeps). Only the log references an event, so a retired event's
	// slot is free at once.
	cutoff := tr.eventBase + len(tr.events) - tr.window
	if cutoff > tr.eventFloor {
		tr.releaseEvents(tr.events[tr.eventFloor-tr.eventBase : cutoff-tr.eventBase])
		// The stale tail past the copy points into the event arena,
		// which lives as long as the trace; appends overwrite it.
		tr.events = tr.events[:copy(tr.events, tr.events[cutoff-tr.eventBase:])]
		tr.eventBase, tr.eventFloor = cutoff, cutoff
	}
	for _, ev := range tr.events {
		tr.HoldStore(ev.Store)
		tr.HoldStore(ev.RF)
	}
	// Per-sub event index lists are ascending: drop the retired prefix,
	// so SubEvents and EachSubEvent never meet a hole.
	for _, sub := range tr.subs {
		if k, _ := slices.BinarySearch(sub.events, tr.eventFloor); k > 0 {
			sub.events = sub.events[:copy(sub.events, sub.events[k:])]
		}
	}

	// Limbo: park the stores their byLoc list still keeps (a refilter
	// that drops one puts it back), keep the ones an event or the checker
	// holds for the next sweep to re-check, and release the rest.
	keep := tr.limbo[:0]
	for _, r := range tr.limbo {
		switch s := tr.StoreAt(r); {
		case s.Seq > 0 && s.mark&offList == 0:
			s.mark &^= inLimbo
		case uint32(s.mark>>holdShift) == tr.holdGen:
			keep = append(keep, r)
		default:
			tr.releaseStore(s)
		}
	}
	tr.limbo = keep

	tr.retirements++
	tr.lastPinned = tr.pinnedNow
	tr.maxPinned = max(tr.maxPinned, tr.pinnedNow)
	if check != nil {
		check()
	}
}

// unlink removes an unpinned store from its thread row and puts it in
// limbo; a committed one also has its byLoc list re-filtered, after it
// is in limbo, so the refilter does not add it a second time.
func (tr *Trace) unlink(s *Store) {
	if uint32(s.mark>>holdShift) != tr.holdGen {
		s.mark &^= holdMask // a stale hold from a sweep that found it pinned
	}
	s.mark |= unlinked | inLimbo
	r := tr.subs[s.SubExec].findRow(s.Thread)
	r.stores[s.Clock-r.base-1] = NoStore
	tr.retiredStores++
	tr.limbo = append(tr.limbo, s.ref)
	if s.Seq > 0 {
		l, _ := tr.subs[s.SubExec].byLoc.Slot(wordKey(s.Addr))
		tr.refilter(l)
	}
}

// trim moves the row's leading holes into its clock base once they
// make up half the row, so trimming costs O(1) per unlinked store and
// StoreByClock meets the rest as holes.
func (r *threadRow) trim() {
	for r.lead < len(r.stores) && r.stores[r.lead] == NoStore {
		r.lead++
	}
	if r.lead > 0 && 2*r.lead >= len(r.stores) {
		r.stores = r.stores[:copy(r.stores, r.stores[r.lead:])]
		r.base += vclock.Clock(r.lead)
		r.lead = 0
	}
}

// refilter applies the byLoc rule to one word's list: keep each
// thread's first store and everything from the oldest pinned store on
// (see the package comment for why that preserves firstPerThread's
// output). Only the entries before the oldest pinned one can go, so
// only they are visited; the dropped ones are marked offList, since
// their list no longer holds them, and a dropped store that was parked
// goes to limbo. After one call that prefix holds at most one store per
// thread, so a second call for another store of the list costs no more.
func (tr *Trace) refilter(l *wordList) {
	seen := tr.markScratch[:0]
	var prev *Store // the last store kept, nil while none is
	for r := l.head; r != NoStore; {
		s := tr.StoreAt(r)
		if s.pinned() {
			break
		}
		next := s.next
		if slices.Contains(seen, s.Thread) {
			s.mark |= offList
			if s.mark&(unlinked|inLimbo) == unlinked {
				s.mark |= inLimbo
				tr.limbo = append(tr.limbo, r)
			}
			s.next = NoStore
			if prev == nil {
				l.head = next
			} else {
				prev.next = next
			}
			if l.tail == r {
				l.tail = NoStore
				if prev != nil {
					l.tail = prev.ref
				}
			}
		} else {
			seen = append(seen, s.Thread)
			prev = s
		}
		r = next
	}
	tr.markScratch = seen[:0]
}

// Stores returns the sub-execution's committed stores in TSO (commit)
// order. Once a sweep has run, the retired ones are gone: the list is
// rebuilt from the byLoc lists, which keep every pinned store.
func (e *SubExec) Stores() []*Store {
	if !e.swept {
		out := make([]*Store, len(e.stores))
		for i, r := range e.stores {
			out[i] = e.tr.StoreAt(r)
		}
		return out
	}
	var out []*Store
	e.byLoc.Each(func(_ uint64, l *wordList) {
		for r := l.head; r != NoStore; {
			s := e.tr.StoreAt(r)
			if s.mark&unlinked == 0 {
				out = append(out, s)
			}
			r = s.next
		}
	})
	slices.SortFunc(out, func(a, b *Store) int { return int(a.Seq - b.Seq) })
	return out
}

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
	// PinnedRoots is the number of stores pinned after the most recent
	// sweep (the stores kept live); MaxPinnedRoots is the largest count
	// any sweep of this execution ended with. Both are deterministic —
	// the pinned set depends only on the execution's trace, never on
	// timing.
	PinnedRoots    int
	MaxPinnedRoots int
}

// Retired reports the retirement totals of the current execution.
func (tr *Trace) Retired() RetireStats {
	if tr.window == 0 {
		return RetireStats{}
	}
	events := tr.retiredStats().Events
	return RetireStats{
		Retirements:    tr.retirements,
		RetiredEvents:  events,
		RetiredStores:  tr.retiredStores,
		ReleasedBytes:  int64(events)*eventBytes + int64(tr.releasedStores)*storeBytes,
		RetainedEvents: tr.eventBase + len(tr.events) - tr.eventFloor,
		PinnedRoots:    tr.lastPinned,
		MaxPinnedRoots: tr.maxPinned,
	}
}

// retiredStats folds the per-kind counts of retired events into Stats
// totals.
func (tr *Trace) retiredStats() Stats {
	k := &tr.retiredKinds
	s := Stats{
		Stores:  k[memmodel.OpStore],
		Loads:   k[memmodel.OpLoad],
		Flushes: k[memmodel.OpFlush] + k[memmodel.OpFlushOpt],
		Fences:  k[memmodel.OpSFence] + k[memmodel.OpMFence],
		RMWs:    k[memmodel.OpCAS] + k[memmodel.OpFAA],
		Crashes: k[memmodel.OpCrash],
	}
	for _, n := range k {
		s.Events += n
	}
	return s
}
