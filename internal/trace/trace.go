// Package trace records executions of the simulated Px86 machine: the
// complete sequence of memory operations, fences, cache flushes, and
// crash events, partitioned into sub-executions by crashes
// (Exec = e1 C1 e2 C2 ... en Cn en+1, paper §3).
//
// The package also implements the Figure 3 state machine that maintains
// clock vectors (tracking the happens-before relation over stores) and
// sequence numbers (tracking the TSO commit order), and the getexec/next
// helpers used by the LOAD-PREV rule in Figure 10.
//
// Store and Event records are allocated from per-trace arenas, clock
// vectors live inline in the records, and source labels are interned to
// LocIDs, so a trace can be recycled across executions with Reset in
// O(1) heap traffic. A Store record holds no pointer, and every store
// reference the trace keeps is a StoreRef handle into the store arena,
// so the store records and their indexes are memory the garbage
// collector never scans. Pointers into a trace (stores, events, Next
// results) are valid only until the next Reset — and, under a
// bounded window, only until the retirement sweep that releases the
// record (window.go); consumers that outlive an execution must copy
// what they keep.
package trace

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/vclock"
)

// StoreRef is a handle to a Store record: 1 + the record's slot in its
// trace's store arena. NoStore, the zero value, names no store. The
// trace's rows, per-word lists, limbo and free list, and the crash
// image's epoch histories, keep handles rather than pointers: a handle
// is not a pointer, so the garbage collector never follows one. Resolve
// it with Trace.StoreAt. Arena chunks never move, so the resolved
// pointer stays valid as long as the handle does.
type StoreRef int32

// NoStore is the StoreRef of no store: a hole in a thread row or an
// epoch history, or the end of a per-word list.
const NoStore StoreRef = 0

// Store is one store operation in an execution. RMW operations contribute
// a Store for their write half. The synthetic Initial store represents a
// location's pre-execution contents (conventionally zero).
//
// A Store holds no pointer (TestRetainedRecordsArePointerFree), so its
// arena chunks are memory the garbage collector never scans: the clock
// vector lives inline unless it has more than four components, when it
// lives in its trace's spill table instead (Trace.StoreCV).
type Store struct {
	// ID is unique across the whole execution, including crashes.
	ID int64
	// Addr is the word-aligned location written.
	Addr memmodel.Addr
	// Value is the value written.
	Value memmodel.Value
	// Thread is the issuing thread (NoThread for Initial stores).
	Thread memmodel.ThreadID
	// SubExec is the index of the sub-execution the store was issued in.
	// Initial stores carry sub-execution 0 and precede all of its stores.
	SubExec int
	// Clock is the store's clock: the Thread-component of its clock
	// vector at issue time (getcl in the paper). It orders the stores of
	// one thread by issue.
	Clock vclock.Clock
	// cv is the store's clock vector SCV(st) at issue time when it fits
	// inline; otherwise it is vclock.Spilled(i), and the vector is entry
	// i of the trace's spill table. Trace.StoreCV reads it. For τ′ ≠
	// Thread, component τ′ is the clock of the last store of thread τ′
	// that happens before this store (§5.1).
	cv vclock.Words
	// Seq is the TSO sequence number assigned when the store commits to
	// the cache; 0 means not yet committed (Figure 3).
	Seq vclock.Seq
	// Kind is OpStore, OpCAS, or OpFAA.
	Kind memmodel.OpKind
	// Loc is the interned source label of the store site, used for bug
	// reports; resolve it with the owning trace's LocString.
	Loc LocID
	// ref is the store's own handle.
	ref StoreRef
	// next is the store after this one on its word's per-sub-execution
	// list (SubExec.byLoc), in commit order; NoStore at the tail.
	next StoreRef
	// Initial marks the synthetic pre-execution store.
	Initial bool

	// gen is the arena slot's generation: odd while the slot sits on
	// the free list (released by a windowed sweep), even while it holds
	// a live store. It fits the padding after Initial.
	gen uint16
	// mark is the store's retirement state under a window (window.go):
	// how many pinned stores reference it, its own pins, whether it has
	// been unlinked, dropped from its byLoc list or put in limbo, and
	// the stamp of the last sweep that found it held. Zero is a store no
	// sweep has seen.
	mark uint64
}

// String renders a short identification of the store for diagnostics.
// The source label is interned in the owning trace, so it is not shown
// here; report-level types carry the materialized label instead.
func (s *Store) String() string {
	if s == nil {
		return "<nil store>"
	}
	if s.Initial {
		return fmt.Sprintf("init[%s]", s.Addr)
	}
	return fmt.Sprintf("store#%d(%s=%d @t%d e%d clk%d)", s.ID, s.Addr, uint64(s.Value), int(s.Thread), s.SubExec, int64(s.Clock))
}

// Ref returns the store's handle.
func (s *Store) Ref() StoreRef { return s.ref }

// HappensBefore reports whether s happens before t: both stores are in
// the same sub-execution and SCV(s) ≤ SCV(t) (§3.4). Initial stores
// happen before every store.
func (tr *Trace) HappensBefore(s, t *Store) bool {
	if s == t || t == nil {
		return false
	}
	if s.Initial {
		return true
	}
	if t.Initial || s.SubExec != t.SubExec {
		return false
	}
	return tr.StoreCV(s).Leq(tr.StoreCV(t))
}

// StoreCV returns s's clock vector SCV(s) at issue time. For τ′ ≠
// s.Thread, component τ′ is the clock of the last store of thread τ′
// that happens before s (§5.1).
func (tr *Trace) StoreCV(s *Store) vclock.CV {
	if i, ok := s.cv.SpillIndex(); ok {
		return tr.spills[i]
	}
	return s.cv.CV()
}

// CVLen and CVComp walk s's clock vector in place, as vclock.CV's Len
// and Comp do, so that a loop over its components does not copy the
// vector out of the record:
//
//	for i, n := 0, tr.CVLen(s); i < n; i++ {
//		t, c := tr.CVComp(s, i)
//		...
//	}
func (tr *Trace) CVLen(s *Store) int {
	if i, ok := s.cv.SpillIndex(); ok {
		return tr.spills[i].Len()
	}
	return s.cv.Len()
}

// CVComp returns the i-th component of s's clock vector; see CVLen.
func (tr *Trace) CVComp(s *Store, i int) (memmodel.ThreadID, vclock.Clock) {
	if j, ok := s.cv.SpillIndex(); ok {
		return tr.spills[j].Comp(i)
	}
	return s.cv.Comp(i)
}

// StoreAt resolves a handle (not NoStore) to its record. In a build
// with the psanpoison tag it panics when the slot was released by a
// sweep, as Store.CheckLive does; in any other build it is two loads.
func (tr *Trace) StoreAt(r StoreRef) *Store {
	s := tr.stores.at(int32(r) - 1)
	if poisonChecks && s.gen&1 != 0 {
		panicReleased("store", s.gen)
	}
	return s
}

// Event is one entry in the flat event log. Loads carry the store they
// read from (RF); stores and RMWs carry their Store object.
type Event struct {
	// Index is the event's position in the global log.
	Index int
	// Kind is the operation performed.
	Kind memmodel.OpKind
	// Thread is the executing thread (NoThread for crashes).
	Thread memmodel.ThreadID
	// Addr is the accessed location or flushed line base (zero for
	// fences and crashes).
	Addr memmodel.Addr
	// Value is the value loaded or stored, when applicable.
	Value memmodel.Value
	// Store is the store object for store/RMW events.
	Store *Store
	// RF is the store a load or RMW read from.
	RF *Store
	// SubExec is the sub-execution index.
	SubExec int
	// Loc is the interned source label of the operation.
	Loc LocID
	// gen is the arena slot's generation; see Store.gen.
	gen uint16
	// CV is the executing thread's clock vector immediately after the
	// event, used to compute fix windows (§5.2).
	CV vclock.CV
}

// SubExec is one crash-delimited portion of an execution.
type SubExec struct {
	// Index is the sub-execution's position (0-based).
	Index int
	// tr is the trace the sub-execution belongs to, which resolves its
	// handles.
	tr *Trace
	// stores holds the committed stores in TSO (commit) order; once a
	// windowed sweep has run (swept), only those committed since the
	// last sweep. Stores() is the reading side.
	stores []StoreRef
	swept  bool
	// byLoc indexes committed stores per word (key addr>>3), in commit
	// order, as a list threaded through the records' next handles. Its
	// tail is the word's volatile cache content: the last store
	// committed to it in this sub-execution (LastTo).
	byLoc Table[wordList]
	// threads holds one row per thread that stored or loaded, in
	// first-touch order. Thread IDs are few and not dense, so a linear
	// search beats any index.
	threads []threadRow
	// seq is the strictly increasing commit counter, reset at crashes.
	seq vclock.Seq
	// events are the indices of this sub-execution's events in the log.
	events []int
}

// wordList is one word's committed stores in a sub-execution, linked
// through Store.next from head to tail in commit order. A list is never
// empty: a word gets one with its first commit, and retirement keeps
// each thread's first store on it.
type wordList struct {
	head, tail StoreRef
}

// threadRow is one thread's state within a sub-execution.
type threadRow struct {
	t memmodel.ThreadID
	// stores indexes the thread's issued stores from clock base+1 on:
	// the store with clock c sits at index c-base-1 (clocks are dense
	// per thread). base is 0 until a windowed sweep trims the row's
	// leading holes (stores it retired), which keeps a long execution's
	// rows at their live span.
	// lead counts the leading holes not yet trimmed into base, and
	// swept is the row's logical length at the last sweep: the stores
	// past it are new to the next one. A hole is NoStore.
	stores []StoreRef
	base   vclock.Clock
	lead   int
	swept  vclock.Clock
	// cv is the thread's entry in the CV map of Figure 3, reset at each
	// crash.
	cv vclock.CV
}

// reset rewinds the sub-execution for reuse at position idx in O(1):
// byLoc starts a new generation and the thread rows are truncated, and
// both keep their backing arrays for the next execution.
func (e *SubExec) reset(idx int) {
	e.Index = idx
	e.stores = e.stores[:0]
	e.swept = false
	e.byLoc.Reset()
	e.threads = e.threads[:0]
	e.seq = 0
	e.events = e.events[:0]
}

// wordKey is a word address's byLoc key.
func wordKey(a memmodel.Addr) uint64 { return uint64(a) >> 3 }

// findRow returns thread t's row, or nil if t has none yet.
func (e *SubExec) findRow(t memmodel.ThreadID) *threadRow {
	for i := range e.threads {
		if e.threads[i].t == t {
			return &e.threads[i]
		}
	}
	return nil
}

// row returns thread t's row, creating it on first touch. A new row
// reuses the backing array a truncated row left at its position. The
// pointer is valid until the next row creation.
func (e *SubExec) row(t memmodel.ThreadID) *threadRow {
	if r := e.findRow(t); r != nil {
		return r
	}
	n := len(e.threads)
	if n < cap(e.threads) {
		e.threads = e.threads[:n+1]
		r := &e.threads[n]
		*r = threadRow{t: t, stores: r.stores[:0]}
		return r
	}
	e.threads = append(e.threads, threadRow{t: t})
	return &e.threads[n]
}

// StoresTo returns the committed stores to addr in TSO order, in a
// newly allocated slice.
func (e *SubExec) StoresTo(addr memmodel.Addr) []*Store {
	var out []*Store
	l, _ := e.byLoc.Get(wordKey(addr.Word()))
	for r := l.head; r != NoStore; {
		s := e.tr.StoreAt(r)
		out = append(out, s)
		r = s.next
	}
	return out
}

// LastTo returns the last store committed to addr's word in this
// sub-execution, or nil if none was — the word's volatile cache content
// while this is the current sub-execution. Bounded-window sweeps keep
// it: the newest store per word is always pinned.
func (e *SubExec) LastTo(addr memmodel.Addr) *Store {
	l, ok := e.byLoc.Get(wordKey(addr.Word()))
	if !ok {
		return nil
	}
	return e.tr.StoreAt(l.tail)
}

// StoreByClock returns thread t's store with the given clock, or nil if
// no such store was issued. It resolves interval endpoints back to the
// stores that set them.
func (e *SubExec) StoreByClock(t memmodel.ThreadID, c vclock.Clock) *Store {
	r := e.findRow(t)
	if r == nil || c <= r.base || c > r.base+vclock.Clock(len(r.stores)) {
		return nil
	}
	ref := r.stores[c-r.base-1]
	if ref == NoStore {
		return nil
	}
	return e.tr.StoreAt(ref)
}

// ThreadCV returns thread t's current clock vector.
func (e *SubExec) ThreadCV(t memmodel.ThreadID) vclock.CV {
	if r := e.findRow(t); r != nil {
		return r.cv
	}
	return vclock.CV{}
}

// Trace is a recorded execution. It is not safe for concurrent use: the
// simulated machine serializes all operations (simulated threads are
// interleaved by the explorer, not by goroutines).
type Trace struct {
	subs    []*SubExec // active prefix of subPool
	subPool []*SubExec // every sub-execution ever created, reused by Reset
	events  []*Event
	// initials indexes the synthetic initial stores per word (key
	// addr>>3); initList holds them in creation order, so store IDs
	// -1, -2, ... sit at positions 0, 1, ....
	initials    Table[StoreRef]
	initList    []StoreRef
	nextStoreID int64

	interner *Interner
	stores   arena[Store]
	evs      arena[Event]
	// evFree recycles the event slots a sweep released. Events hold
	// pointers, so their free list may as well.
	evFree []*Event
	// spills holds the clock vectors of the stores whose vector does not
	// fit inline (Store.cv); spillFree lists the entries released with
	// their stores.
	spills    []vclock.CV
	spillFree []uint32

	// nextOut/nextSeen are the scratch buffers of Next; see its contract.
	nextOut  []*Store
	nextSeen []memmodel.ThreadID

	// --- bounded-window (streaming) state; see window.go ---

	// window is the retirement window in operations; 0 (the default)
	// keeps the classic unbounded pipeline, byte-identical to a trace
	// without windowing. When positive, retirement sweeps return
	// released records to the arenas' free lists.
	window int
	// holdGen stamps the stores the running sweep finds held (see
	// Store.mark); it starts over at Reset and never reads 0.
	holdGen uint32
	// eventFloor is the lowest possibly-live logical index in events:
	// everything below it has been retired by a previous sweep.
	eventFloor int
	// eventBase is the logical index of events[0]: sweeps physically
	// drop the retired prefix, so physical index = logical - eventBase.
	// Always 0 in unbounded mode.
	eventBase int
	// retiredKinds counts the retired events per kind; retiredStores and
	// retirements feed Stats and the explorer's window diagnostics.
	retiredKinds  [memmodel.OpCrash + 1]int
	retiredStores int
	retirements   int
	// releasedStores counts stores whose slots went back to the free
	// list; it trails retiredStores by the stores parked or in limbo.
	releasedStores int
	// limbo holds the unlinked stores a sweep could release: each sweep
	// adds the ones it unlinks and refilter the parked ones it drops,
	// then parks or releases every one nothing holds (see Retire).
	limbo []StoreRef
	// pinnedNow counts the pinned stores; lastPinned is its value at the
	// end of the most recent sweep and maxPinned the execution's maximum.
	pinnedNow  int
	lastPinned int
	maxPinned  int
	// roots and prevRoots are the running and the previous sweep's
	// transient roots; pinRootFn is pinRoot as a value, for the roots
	// callbacks. unpinned collects the stores that lost their pins
	// since the last sweep, pinStack the reference walks' stack.
	roots, prevRoots []StoreRef
	pinRootFn        func(*Store)
	unpinned         []StoreRef
	pinStack         []StoreRef
	// initSwept initial stores and the sub-executions before sweptSub
	// have been seen by a sweep.
	initSwept int
	sweptSub  int
	// refCheck, when set by a test, runs inside every sweep once its
	// roots are in and returns the check to run when the sweep ends.
	refCheck func() func()
	// markScratch is refilter's reusable first-per-thread scratch.
	markScratch []memmodel.ThreadID
}

// New returns an empty trace with one (initial) sub-execution.
func New() *Trace {
	t := &Trace{interner: NewInterner()}
	t.pinRootFn = t.pinRoot
	t.pushSubExec()
	return t
}

// Reset rewinds the trace to the empty state for the next execution,
// recycling every Store, Event, and SubExec. The intern table is kept:
// labels retain their IDs across the executions of one reused world.
// All pointers previously handed out (stores, events, Next results)
// become invalid.
func (tr *Trace) Reset() {
	for _, s := range tr.subs {
		s.reset(s.Index)
	}
	tr.subs = tr.subPool[:0]
	tr.events = tr.events[:0]
	tr.initials.Reset()
	tr.initList = tr.initList[:0]
	tr.nextStoreID = 0
	tr.stores.reset()
	tr.evs.reset()
	tr.evFree = tr.evFree[:0]
	clear(tr.spills)
	tr.spills, tr.spillFree = tr.spills[:0], tr.spillFree[:0]
	tr.eventFloor = 0
	tr.eventBase = 0
	tr.retiredKinds = [memmodel.OpCrash + 1]int{}
	tr.retiredStores = 0
	tr.releasedStores = 0
	tr.limbo, tr.roots, tr.prevRoots = tr.limbo[:0], tr.roots[:0], tr.prevRoots[:0]
	tr.unpinned = tr.unpinned[:0]
	tr.retirements = 0
	tr.holdGen = 0
	tr.pinnedNow, tr.lastPinned, tr.maxPinned = 0, 0, 0
	tr.initSwept, tr.sweptSub = 0, 0
	tr.pushSubExec()
}

// Intern maps a source label to its dense per-trace LocID.
func (tr *Trace) Intern(loc string) LocID { return tr.interner.Intern(loc) }

// LocString materializes an interned label.
func (tr *Trace) LocString(id LocID) string { return tr.interner.Str(id) }

// Interner exposes the trace's intern table (shared with the machine and
// checker attached to this trace).
func (tr *Trace) Interner() *Interner { return tr.interner }

func (tr *Trace) pushSubExec() {
	n := len(tr.subs)
	if n < len(tr.subPool) {
		tr.subPool[n].reset(n)
		tr.subs = tr.subPool[:n+1]
		return
	}
	tr.subPool = append(tr.subPool, &SubExec{Index: n, tr: tr})
	tr.subs = tr.subPool
}

// Current returns the current (last) sub-execution.
func (tr *Trace) Current() *SubExec { return tr.subs[len(tr.subs)-1] }

// SubExecs returns all sub-executions, oldest first.
func (tr *Trace) SubExecs() []*SubExec { return tr.subs }

// Sub returns the i-th sub-execution.
func (tr *Trace) Sub(i int) *SubExec { return tr.subs[i] }

// NumCrashes returns the number of crash events recorded so far.
func (tr *Trace) NumCrashes() int { return len(tr.subs) - 1 }

// Events returns the full event log.
func (tr *Trace) Events() []*Event { return tr.events }

// Initial returns (creating on first use) the synthetic initial store
// for addr. Initial stores have clock 0, bottom clock vector, and
// sequence 0: they are TSO-before and happen-before everything.
func (tr *Trace) Initial(addr memmodel.Addr) *Store {
	addr = addr.Word()
	slot, ok := tr.initials.Slot(wordKey(addr))
	if ok {
		return tr.StoreAt(*slot)
	}
	s := tr.newStore()
	s.ID = -int64(len(tr.initList)) - 1
	s.Addr = addr
	s.Thread = memmodel.NoThread
	s.SubExec = 0
	s.Initial = true
	*slot = s.ref
	tr.initList = append(tr.initList, s.ref)
	return s
}

func (tr *Trace) appendEvent(ev *Event) *Event {
	ev.Index = tr.eventBase + len(tr.events)
	ev.SubExec = tr.Current().Index
	tr.events = append(tr.events, ev)
	cur := tr.Current()
	cur.events = append(cur.events, ev.Index)
	return ev
}

// StoreIssue applies the [STORE ISSUE] rule: it increments the thread's
// clock vector, creates the store with that vector and a zero sequence
// number, and logs the event. The returned store is not yet committed.
func (tr *Trace) StoreIssue(t memmodel.ThreadID, addr memmodel.Addr, v memmodel.Value, kind memmodel.OpKind, loc LocID) *Store {
	cur := tr.Current()
	r := cur.row(t)
	cv := r.cv.Inc(t)
	r.cv = cv
	tr.nextStoreID++
	st := tr.newStore()
	st.ID = tr.nextStoreID
	st.Addr = addr.Word()
	st.Value = v
	st.Thread = t
	st.SubExec = cur.Index
	st.Clock = cv.At(t)
	tr.setCV(st, cv)
	st.Kind = kind
	st.Loc = loc
	r.stores = append(r.stores, st.ref)
	ev := tr.newEvent()
	ev.Kind = kind
	ev.Thread = t
	ev.Addr = st.Addr
	ev.Value = v
	ev.Store = st
	ev.Loc = loc
	ev.CV = cv
	tr.appendEvent(ev)
	return st
}

// StoreCommit applies the [STORE COMMIT] rule: the store leaves its store
// buffer and takes the next TSO sequence number of the current
// sub-execution. Committing a store twice or committing a store issued in
// an earlier sub-execution is a programming error in the simulator.
func (tr *Trace) StoreCommit(st *Store) {
	cur := tr.Current()
	if st.Seq != 0 {
		panic(fmt.Sprintf("trace: store %v committed twice", st))
	}
	if st.SubExec != cur.Index {
		panic(fmt.Sprintf("trace: store %v commits in sub-execution %d", st, cur.Index))
	}
	cur.seq++
	st.Seq = cur.seq
	cur.stores = append(cur.stores, st.ref)
	l, ok := cur.byLoc.Slot(wordKey(st.Addr))
	if ok {
		tr.StoreAt(l.tail).next = st.ref
		l.tail = st.ref
	} else {
		*l = wordList{head: st.ref, tail: st.ref}
	}
}

// Load applies the [LOAD] rule: it logs the read and, when the store read
// from belongs to the current sub-execution, merges the store's clock
// vector into the reading thread's vector (establishing happens-before).
// Reads that cross a crash boundary do not merge vectors — recovery
// threads are fresh threads; those reads are instead checked by the
// LOAD-PREV rule of the robustness checker.
func (tr *Trace) Load(t memmodel.ThreadID, addr memmodel.Addr, rf *Store, kind memmodel.OpKind, loc LocID) *Event {
	cur := tr.Current()
	r := cur.row(t)
	if rf != nil && !rf.Initial && rf.SubExec == cur.Index {
		r.cv = r.cv.Join(tr.StoreCV(rf))
	}
	var v memmodel.Value
	if rf != nil {
		v = rf.Value
	}
	ev := tr.newEvent()
	ev.Kind = kind
	ev.Thread = t
	ev.Addr = addr.Word()
	ev.Value = v
	ev.RF = rf
	ev.Loc = loc
	ev.CV = r.cv
	return tr.appendEvent(ev)
}

// Fence logs a fence, flush, or flush-opt event.
func (tr *Trace) Fence(t memmodel.ThreadID, kind memmodel.OpKind, addr memmodel.Addr, loc LocID) *Event {
	ev := tr.newEvent()
	ev.Kind = kind
	ev.Thread = t
	ev.Addr = addr
	ev.Loc = loc
	ev.CV = tr.Current().ThreadCV(t)
	return tr.appendEvent(ev)
}

// Crash applies the [CRASH] rule: it logs the crash event and begins a
// new sub-execution with a fresh CV map and sequence counter.
func (tr *Trace) Crash() {
	ev := tr.newEvent()
	ev.Kind = memmodel.OpCrash
	ev.Thread = memmodel.NoThread
	tr.appendEvent(ev)
	tr.pushSubExec()
}

// TraceMark is a resumable position in a trace, captured by Mark and
// restored by Rewind. A mark is only meaningful at a crash boundary:
// immediately after Crash the current sub-execution is empty, so the
// mark cleanly separates a committed prefix from the suffix a later
// Rewind discards.
type TraceMark struct {
	subs        int
	events      int
	initials    int
	nextStoreID int64
	stores      arenaMark
	evs         arenaMark
	spills      int
}

// Mark captures the trace's position for a later Rewind. Call it only
// immediately after Crash (see TraceMark). Marks are an arena-position
// mechanism and are incompatible with bounded-window mode, whose
// retirement sweep invalidates positions behind the frontier; the
// explorer takes no snapshots under a window, so reaching this panic
// indicates a harness bug, not a user error.
func (tr *Trace) Mark() TraceMark {
	if tr.window > 0 {
		panic("trace: Mark is unavailable in bounded-window mode")
	}
	return TraceMark{
		subs:        len(tr.subs),
		events:      len(tr.events),
		initials:    len(tr.initList),
		nextStoreID: tr.nextStoreID,
		stores:      tr.stores.mark(),
		evs:         tr.evs.mark(),
		spills:      len(tr.spills),
	}
}

// Rewind returns the trace to a previously captured mark, recycling
// every Store, Event, and SubExec recorded since. Pointers handed out
// after the mark was taken become invalid; pointers from before it stay
// valid (the prefix is untouched). The intern table is kept, as with
// Reset.
func (tr *Trace) Rewind(m TraceMark) {
	if tr.window > 0 {
		panic("trace: Rewind is unavailable in bounded-window mode")
	}
	for i := m.subs; i < len(tr.subs); i++ {
		tr.subs[i].reset(i)
	}
	tr.subs = tr.subPool[:m.subs]
	// The current-at-mark sub-execution was empty when the mark was
	// taken (marks sit at crash boundaries); anything it accumulated
	// since belongs to the discarded suffix.
	tr.subs[m.subs-1].reset(m.subs - 1)
	tr.events = tr.events[:m.events]
	// Initial stores created after the mark are exactly the tail of
	// the creation-order list.
	for _, r := range tr.initList[m.initials:] {
		tr.initials.Delete(wordKey(tr.StoreAt(r).Addr))
	}
	tr.initList = tr.initList[:m.initials]
	tr.nextStoreID = m.nextStoreID
	tr.stores.rewind(m.stores)
	tr.evs.rewind(m.evs)
	// Without a window no store is released, so the spill table only
	// grew since the mark.
	clear(tr.spills[m.spills:])
	tr.spills = tr.spills[:m.spills]
}

// GetExec returns the sub-execution containing the store (getexec in the
// paper's Figure 10).
func (tr *Trace) GetExec(st *Store) *SubExec { return tr.subs[st.SubExec] }

// Next implements next(st, e) from Figure 10: the smallest set of stores
// containing (1) the first store to st's location in each thread that is
// TSO ordered after st within getexec(st), and (2) the first store to the
// location in each thread of every sub-execution after getexec(st) and
// before the sub-execution with index ecur.
//
// Only committed stores participate: a store still sitting in a store
// buffer at the crash never reached the cache, cannot have persisted, and
// therefore constrains nothing.
//
// The returned slice is a trace-owned scratch buffer, valid only until
// the next Next call on the same trace.
func (tr *Trace) Next(st *Store, ecur int) []*Store {
	st.CheckLive()
	tr.nextOut = tr.nextOut[:0]
	start := st.SubExec + 1
	key := wordKey(st.Addr)
	if st.Initial {
		// The initial store precedes all stores of sub-execution 0.
		tr.firstPerThread(tr.subs[st.SubExec], key, 0)
	} else {
		tr.firstPerThread(tr.subs[st.SubExec], key, st.Seq)
	}
	for i := start; i < ecur && i < len(tr.subs); i++ {
		tr.firstPerThread(tr.subs[i], key, 0)
	}
	return tr.nextOut
}

// firstPerThread appends to nextOut the first store per thread with
// Seq > after on word key's list in sub. Each call starts with a fresh
// per-thread seen set; the thread count is tiny, so a linear scan beats
// a map.
func (tr *Trace) firstPerThread(sub *SubExec, key uint64, after vclock.Seq) {
	tr.nextSeen = tr.nextSeen[:0]
	l, _ := sub.byLoc.Get(key)
	for r := l.head; r != NoStore; {
		s := tr.StoreAt(r)
		r = s.next
		if s.Seq <= after {
			continue
		}
		dup := false
		for _, t := range tr.nextSeen {
			if t == s.Thread {
				dup = true
				break
			}
		}
		if !dup {
			tr.nextSeen = append(tr.nextSeen, s.Thread)
			tr.nextOut = append(tr.nextOut, s)
		}
	}
}

// SubEvents returns all events of sub-execution e in execution order.
func (tr *Trace) SubEvents(e int) []*Event {
	out := make([]*Event, 0, len(tr.subs[e].events))
	for _, idx := range tr.subs[e].events {
		ev := tr.events[idx-tr.eventBase]
		ev.CheckLive()
		out = append(out, ev)
	}
	return out
}

// EachSubEvent calls f on every event of sub-execution e, in execution
// order, without copying the event list. Fix synthesis walks it once per
// new violation.
func (tr *Trace) EachSubEvent(e int, f func(*Event)) {
	for _, idx := range tr.subs[e].events {
		ev := tr.events[idx-tr.eventBase]
		ev.CheckLive()
		f(ev)
	}
}
