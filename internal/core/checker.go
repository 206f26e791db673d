// Package core implements PSan, the robustness checker that is the
// paper's primary contribution (§4–§5).
//
// The checker watches an execution trace. Whenever a load in the current
// sub-execution reads from a store of a previous sub-execution, it
// updates potential-crash-interval constraints — one interval per
// (sub-execution, thread) pair — according to the three implications of
// §4.3 and the LOAD-PREV rule of Figure 10:
//
//  1. Observed stores must have executed: the sub-execution's threads
//     crashed no earlier than the last stores that happen before the
//     store read from (implications 4.1 and 4.3, folded together via
//     the store's clock vector).
//  2. Newer stores must not have executed: for every first-per-thread
//     store to the same location TSO-after the store read from — in its
//     own sub-execution or any intervening one — the corresponding
//     thread crashed before that store committed (implication 4.2,
//     extended to multiple crash events per §4.4).
//
// If any interval becomes empty, no strictly-persistent execution is
// consistent with the observed behavior: a robustness violation. The
// checker then localizes the bug to a pair of stores and synthesizes fix
// suggestions (§5.2): flush+drain windows per thread (primary window in
// the thread of the store that is missing the flush, alternates in the
// observing threads — the Figure 7 case), or colocating the two fields
// on one cache line.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/intervals"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// ViolationKind distinguishes the two diagnosis cases of §5.2.
type ViolationKind int

const (
	// ReadTooOld: the load read from a store that is too old — a newer
	// store to the same location was missing a flush, and some other
	// observed store pinned the crash interval after it (Figure 11).
	ReadTooOld ViolationKind = iota
	// ReadTooNew: the load read from a store that is too new — it (or a
	// store happening before it) persisted even though an earlier store,
	// observed stale by a previous load, did not (Figure 12).
	ReadTooNew
)

// String names the violation kind.
func (k ViolationKind) String() string {
	if k == ReadTooOld {
		return "read-too-old"
	}
	return "read-too-new"
}

// FixKind enumerates the repair strategies of §5.2.
type FixKind int

const (
	// FixInsertFlush inserts a flush of the missing store's cache line
	// plus a drain inside the reported window.
	FixInsertFlush FixKind = iota
	// FixColocate changes the memory layout so the two stores share a
	// cache line, making their persist order follow TSO automatically.
	FixColocate
)

// Fix is one suggested repair for a robustness violation.
type Fix struct {
	Kind FixKind
	// Thread is the thread whose code the flush should be inserted in
	// (FixInsertFlush only).
	Thread memmodel.ThreadID
	// AfterLoc and BeforeLoc delimit the insertion window: the flush and
	// drain must be placed after the operation at AfterLoc and before
	// the one at BeforeLoc. BeforeLoc may be empty when the window runs
	// to the end of the thread's code.
	AfterLoc, BeforeLoc string
	// Primary marks the paper's "primary fix interval": the window in
	// the thread that executed the store missing the flush, which is
	// typically the desired fix.
	Primary bool
}

// String renders the fix as an actionable suggestion.
func (f Fix) String() string {
	switch f.Kind {
	case FixColocate:
		return fmt.Sprintf("colocate fields: place both stores on one cache line (after %q, before %q)", f.AfterLoc, f.BeforeLoc)
	default:
		tag := ""
		if f.Primary {
			tag = " [primary]"
		}
		if f.BeforeLoc == "" {
			return fmt.Sprintf("insert flush+drain in thread %d after %q%s", int(f.Thread), f.AfterLoc, tag)
		}
		return fmt.Sprintf("insert flush+drain in thread %d after %q and before %q%s", int(f.Thread), f.AfterLoc, f.BeforeLoc, tag)
	}
}

// StoreRef is a frozen copy of a trace store: everything a bug report
// needs, detached from the trace arenas so a violation stays valid after
// the world that produced it is reset for the next execution. Loc is the
// materialized source label.
type StoreRef struct {
	ID      int64
	Addr    memmodel.Addr
	Value   memmodel.Value
	Thread  memmodel.ThreadID
	SubExec int
	Clock   vclock.Clock
	CV      vclock.CV
	Seq     vclock.Seq
	Kind    memmodel.OpKind
	Loc     string
	Initial bool
}

// String renders a short identification of the store for reports.
func (s *StoreRef) String() string {
	if s == nil {
		return "<nil store>"
	}
	if s.Initial {
		return fmt.Sprintf("init[%s]", s.Addr)
	}
	loc := s.Loc
	if loc == "" {
		loc = fmt.Sprintf("store#%d", s.ID)
	}
	return fmt.Sprintf("%s(%s=%d @t%d e%d clk%d)", loc, s.Addr, uint64(s.Value), int(s.Thread), s.SubExec, int64(s.Clock))
}

// Violation is one detected robustness violation: the execution observed
// an outcome impossible under strict persistency. All store references
// are frozen copies, so a violation remains valid after its world is
// reset or reused.
type Violation struct {
	Kind ViolationKind
	// LoadLoc and LoadThread identify the post-crash load whose read
	// made the constraints unsatisfiable.
	LoadLoc    string
	LoadThread memmodel.ThreadID
	// ReadFrom is the store the load read from.
	ReadFrom *StoreRef
	// MissingFlush is the earlier store in happens-before order that was
	// not made persistent: the store missing a flush operation. Fixing
	// the bug means persisting it before Persisted commits.
	MissingFlush *StoreRef
	// Persisted is the later store that was made persistent and observed
	// by post-crash loads.
	Persisted *StoreRef
	// SubExec and Thread identify the crash interval that became empty.
	SubExec int
	Thread  memmodel.ThreadID
	// Interval is the (empty) conjunction that exposed the violation.
	// Its endpoint Store fields hold *StoreRef.
	Interval intervals.Interval
	// Fixes are the suggested repairs, primary first.
	Fixes []Fix
	// Prov is the minimal event sub-trace explaining the violation,
	// captured at flag time when provenance is enabled (SetProvenance);
	// nil otherwise. Like the StoreRefs it is fully frozen.
	Prov *obs.Provenance

	// key caches Key; id is the intra-world dedup identity, the
	// violation identity's dense number (Checker.idOf).
	key string
	id  int32
}

// Key returns a stable identity for deduplicating the same program bug
// across executions: the pair of store sites plus the diagnosis kind.
func (v *Violation) Key() string {
	if v.key == "" {
		mf, p := "", ""
		if v.MissingFlush != nil {
			mf = v.MissingFlush.Loc
		}
		if v.Persisted != nil {
			p = v.Persisted.Loc
		}
		v.key = bugKey(v.Kind, mf, p)
	}
	return v.key
}

// bugKey formats a violation's bug identity from its diagnosis kind and
// the labels of its missing-flush and persisted store sites ("" for a
// missing store). It is the one definition behind both Violation.Key and
// the campaign-known lookups of applyUpdates.
func bugKey(kind ViolationKind, mfLoc, perLoc string) string {
	return kind.String() + "|" + mfLoc + "|" + perLoc
}

// KeySet returns the sorted Key()s of vs — the canonical identity of a
// violation set. Exploration results, checkpoints, and the determinism
// tests all compare and persist violation sets through this one form,
// so a set survives serialization (checkpoint/resume) byte-identically
// even though the frozen StoreRefs behind it do not.
func KeySet(vs []*Violation) []string {
	keys := make([]string, 0, len(vs))
	for _, v := range vs {
		keys = append(keys, v.Key())
	}
	sort.Strings(keys)
	return keys
}

// String renders a full report in the style of the paper's examples.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "robustness violation (%s): load %q read %v\n", v.Kind, v.LoadLoc, v.ReadFrom)
	fmt.Fprintf(&b, "  store missing flush: %v\n", v.MissingFlush)
	fmt.Fprintf(&b, "  persisted store observed: %v\n", v.Persisted)
	fmt.Fprintf(&b, "  crash interval of thread %d in sub-execution %d is empty: %v\n", int(v.Thread), v.SubExec, v.Interval)
	for _, f := range v.Fixes {
		fmt.Fprintf(&b, "  fix: %s\n", f)
	}
	return b.String()
}

// consKey addresses one crash interval: the map C of §4.4 specialized to
// a (sub-execution, thread) pair.
type consKey struct {
	subExec int
	thread  memmodel.ThreadID
}

// consEntry is one committed crash interval in a sub-execution's
// constraint row.
type consEntry struct {
	thread memmodel.ThreadID
	iv     intervals.Interval
}

// pendingEntry is one interval narrowed by an earlier update of the load
// being applied but not committed (modeCheck, modeFlag).
type pendingEntry struct {
	key consKey
	iv  intervals.Interval
}

// violationKey is the intra-world identity of a violation: the diagnosis
// kind plus the two interned store sites. LocIDs are stable within one
// world, so the checker numbers each identity once per world (idOf) and
// its seen set and known cache are indexed by that number;
// cross-execution dedup goes through the string Key.
type violationKey struct {
	kind   ViolationKind
	mfLoc  trace.LocID
	perLoc trace.LocID
}

// word packs the identity into one word, the ids map's key: a map keyed
// by a word hashes faster than one keyed by the struct. LocIDs are
// non-negative int32s and the kind is one bit.
func (vk violationKey) word() uint64 {
	return uint64(vk.kind)<<62 | uint64(vk.mfLoc)<<31 | uint64(vk.perLoc)
}

// update is one pending interval constraint derived from a load.
type update struct {
	key consKey
	// lo is true for a lower-bound update ([clock, ∞)), false for an
	// upper-bound update ([0, clock)).
	lo    bool
	clock vclock.Clock
	// store is the endpoint's provenance (the store whose commit bounds
	// the crash point).
	store *trace.Store
}

// narrow conjoins the update's bound with iv, or with the unconstrained
// interval when iv is nil.
func (u *update) narrow(iv *intervals.Interval) intervals.Interval {
	next := intervals.New()
	if iv != nil {
		next = *iv
	}
	if u.lo {
		next, _ = next.ConstrainLo(u.clock, u.store)
	} else {
		next, _ = next.ConstrainHi(u.clock, u.store)
	}
	return next
}

// tightens reports whether the update would move a bound of iv; one
// that does not leaves iv exactly as it is.
func (u *update) tightens(iv *intervals.Interval) bool {
	if u.lo {
		return u.clock > iv.Lo.Clock
	}
	return u.clock < iv.Hi.Clock
}

// Options enables the ablations of the two ideas §4.2 argues are
// necessary. Both default to off (the full algorithm).
type Options struct {
	// NoHBClosure disables implication 4.3: lower bounds come only from
	// the read store's own thread, not from its happens-before
	// predecessors. The §4.2.2 ablation — the Figure 7 violation is
	// missed.
	NoHBClosure bool
	// GlobalInterval replaces per-thread crash intervals with a single
	// interval per sub-execution over TSO sequence numbers — the naïve
	// approach §4.2.1 shows is overly restrictive: the robust Figure 6
	// execution is flagged as a false positive.
	GlobalInterval bool
}

// globalThread keys the single interval used in GlobalInterval mode.
const globalThread = memmodel.ThreadID(-2)

// Checker is a PSan robustness checker attached to one execution trace.
// It is not safe for concurrent use, mirroring the serialized simulator.
// All of its state — the constraint rows, violation list, and seen-set —
// is per-instance with no package-level sharing, so the parallel
// exploration engine runs one Checker per world on its own goroutine
// and never shares one across executions.
type Checker struct {
	tr       *trace.Trace
	opt      Options
	disabled bool
	prov     bool
	// cons holds the committed crash intervals: row i is sub-execution
	// i's, a short slice sorted by thread (thread IDs need not be dense,
	// and GlobalInterval keys its one interval by globalThread). A pair
	// without an entry is unconstrained. Reset and Restore truncate the
	// rows and keep their backing arrays, so the per-load path runs
	// without Go map operations.
	cons [][]consEntry
	// violations accumulates committed violations in detection order.
	violations []*Violation
	// seen marks, by violation id, the identities this execution has
	// recorded or found known; an id past its length is unseen.
	seen []bool
	// known, when set, reports whether the exploration campaign already
	// holds a violation key (SetKnown). knownAt[id] == gen caches a true
	// answer for id: the campaign's and the unit's key sets only grow
	// until the next Reset, which moves gen. gen starts at 1, so a fresh
	// slot is not an answer; SetKnown clears the slots.
	known   func(key string) bool
	knownAt []uint32
	gen     uint32
	// checksum deferral (§6.4): while a thread is inside an annotated
	// checksum region, its cross-crash loads are buffered here.
	deferred map[memmodel.ThreadID][]deferredLoad

	// ups is updatesFor's scratch buffer; pending holds the intervals
	// applyUpdates narrowed for the load in progress without committing
	// them, searched linearly (a load yields a handful of updates). Both
	// are reused across loads.
	ups     []update
	pending []pendingEntry
	// ids numbers each violation identity at first sight; keyStrs and
	// knownAt hold a slot per id. LocIDs are stable for the world's
	// lifetime, so all three survive Reset.
	ids     map[uint64]int32
	keyStrs []string
	// applied[ID] (appliedInit[-ID-1] for an initial store) == stamp
	// marks a store from an earlier sub-execution whose read was applied
	// in full in the current one: every update committed and none
	// emptied an interval. Intervals only narrow until the stamp moves —
	// on Reset, on Restore and when the current sub-execution (stampSub)
	// changes — so a re-read of a stamped store tightens nothing and
	// cannot violate. Only such reads are stamped, which keeps the
	// tables as small as the earlier sub-executions' store IDs.
	applied, appliedInit []uint32
	stamp                uint32
	stampSub             int
}

// deferredLoad is a cross-crash read buffered inside a checksum region.
type deferredLoad struct {
	thread memmodel.ThreadID
	addr   memmodel.Addr
	rf     *trace.Store
	loc    trace.LocID
}

// New returns a checker for the given trace with no constraints — every
// strictly persistent pre-crash execution is initially consistent.
func New(tr *trace.Trace) *Checker {
	return NewWithOptions(tr, Options{})
}

// NewWithOptions returns a checker running one of the §4.2 ablations.
func NewWithOptions(tr *trace.Trace, opt Options) *Checker {
	return &Checker{
		tr:       tr,
		opt:      opt,
		deferred: make(map[memmodel.ThreadID][]deferredLoad),
		ids:      make(map[uint64]int32),
		gen:      1,
		stamp:    1,
	}
}

// Reset clears the checker for the next execution on the same (reset)
// trace. The accumulated violations slice is dropped, not truncated —
// it escapes to the exploration harness, which may retain it after the
// reset. The enabled/disabled state, ablation options, provenance
// setting, and known-key predicate are kept; the predicate's cached
// answers are not.
func (c *Checker) Reset() {
	c.cons = c.cons[:0]
	c.violations = nil
	clear(c.seen)
	clear(c.deferred)
	c.nextStamp()
	c.gen++ // drops every cached known answer
	if c.gen == 0 {
		clear(c.knownAt)
		c.gen = 1
	}
}

// nextStamp moves the applied-read stamp, unstamping every store. When
// the counter would wrap, the tables are cleared once.
func (c *Checker) nextStamp() {
	c.stamp++
	if c.stamp == 0 {
		clear(c.applied)
		clear(c.appliedInit)
		c.stamp = 1
	}
}

// Intern maps a source label to the trace's dense LocID, the form the
// checker's read hooks take.
func (c *Checker) Intern(loc string) trace.LocID { return c.tr.Intern(loc) }

// MarkRetireRoots marks the stores the checker still references during
// a bounded-window retirement (the pmem world passes it to the model's
// Retire as the extra-roots hook). Violations freeze store sites into
// StoreRefs at flag time, so the checker keeps two kinds of live store
// pointers. The read-from stores of loads deferred inside open checksum
// regions replay through OnRead at region end, so they are pinned: they
// must stay indexed, since their clock vectors resolve through
// StoreByClock. The constraint-row endpoints (intervals.Endpoint.Store)
// are only read for their fields — diagnose and violationKeyFor take
// their labels — so they are held: the sweep may unlink them, but must
// not reuse their slots.
func (c *Checker) MarkRetireRoots(mark func(*trace.Store)) {
	for _, loads := range c.deferred {
		for _, dl := range loads {
			mark(dl.rf)
		}
	}
	for _, row := range c.cons {
		for i := range row {
			iv := &row[i].iv
			if s, ok := iv.Lo.Store.(*trace.Store); ok {
				c.tr.HoldStore(s)
			}
			if s, ok := iv.Hi.Store.(*trace.Store); ok {
				c.tr.HoldStore(s)
			}
		}
	}
}

// freeze copies a trace store into a report-stable StoreRef,
// materializing its source label.
func (c *Checker) freeze(s *trace.Store) *StoreRef {
	if s == nil {
		return nil
	}
	return &StoreRef{
		ID:      s.ID,
		Addr:    s.Addr,
		Value:   s.Value,
		Thread:  s.Thread,
		SubExec: s.SubExec,
		Clock:   s.Clock,
		CV:      c.tr.StoreCV(s),
		Seq:     s.Seq,
		Kind:    s.Kind,
		Loc:     c.tr.LocString(s.Loc),
		Initial: s.Initial,
	}
}

// freezeEndpoint rebinds an interval endpoint's provenance from the
// trace store to its frozen copy.
func (c *Checker) freezeEndpoint(e intervals.Endpoint) intervals.Endpoint {
	if s, ok := e.Store.(*trace.Store); ok {
		e.Store = c.freeze(s)
	}
	return e
}

// Violations returns the violations committed so far, in detection
// order. A violation whose key the SetKnown predicate reports as known
// is never committed, so with a predicate installed the list holds only
// the bugs new to the campaign.
func (c *Checker) Violations() []*Violation { return c.violations }

// SetKnown installs (or, with nil, removes) the campaign's known-key
// predicate: known(k) reports whether a violation with Key k has already
// been collected by the exploration campaign driving this checker. An
// emptying read whose key is known is marked seen — so its constraint
// rows, snapshots, and every later dedup behave exactly as if it had
// been diagnosed — but is neither diagnosed nor committed: the campaign
// would discard the copy, so its fixes and provenance are not
// synthesized at all. The predicate is consulted at most once per
// distinct key per execution (only for keys not yet seen) and survives
// Reset. A true answer is cached until the next Reset, so the predicate
// must stay true for a key until then; the explorer's does, because every
// unit's first execution resets its world and a unit's key set only
// grows.
func (c *Checker) SetKnown(known func(key string) bool) {
	c.known = known
	clear(c.knownAt)
}

// SetEnabled turns checking on or off. A disabled checker observes
// nothing and reports nothing; the harness uses it to measure the
// simulator's baseline cost (the Jaaru column of Table 3).
func (c *Checker) SetEnabled(on bool) { c.disabled = !on }

// SetProvenance turns violation-provenance capture on or off. Like fix
// synthesis it walks the event log only when a bug is first recorded, so
// the per-load checking cost is unchanged; violation-free executions pay
// nothing either way. Off by default, and like the enabled state and
// options it survives Reset.
func (c *Checker) SetProvenance(on bool) { c.prov = on }

// Interval returns the current crash interval for a (sub-execution,
// thread) pair, mainly for tests and the litmus printer.
func (c *Checker) Interval(subExec int, t memmodel.ThreadID) intervals.Interval {
	if iv := c.committed(consKey{subExec, t}); iv != nil {
		return *iv
	}
	return intervals.New()
}

// committed returns k's committed interval in its row, or nil.
func (c *Checker) committed(k consKey) *intervals.Interval {
	if k.subExec < len(c.cons) {
		row := c.cons[k.subExec]
		for i := range row {
			if row[i].thread >= k.thread {
				if row[i].thread == k.thread {
					return &row[i].iv
				}
				break
			}
		}
	}
	return nil
}

// growRows extends cons to n rows, truncating each row it exposes: a
// row past the length still holds a previous execution's entries.
func (c *Checker) growRows(n int) {
	for len(c.cons) < n {
		if i := len(c.cons); i < cap(c.cons) {
			c.cons = c.cons[:i+1]
			c.cons[i] = c.cons[i][:0]
		} else {
			c.cons = append(c.cons, nil)
		}
	}
}

// commit records iv as k's interval, keeping k's row sorted by thread.
func (c *Checker) commit(k consKey, iv intervals.Interval) {
	c.growRows(k.subExec + 1)
	row := c.cons[k.subExec]
	i := 0
	for i < len(row) && row[i].thread < k.thread {
		i++
	}
	if i < len(row) && row[i].thread == k.thread {
		row[i].iv = iv
		return
	}
	c.cons[k.subExec] = slices.Insert(row, i, consEntry{thread: k.thread, iv: iv})
}

// current returns the interval an update to k narrows: the one an
// earlier update of the same load left pending, else the committed one,
// else nil (unconstrained).
func (c *Checker) current(k consKey) *intervals.Interval {
	for i := range c.pending {
		if c.pending[i].key == k {
			return &c.pending[i].iv
		}
	}
	return c.committed(k)
}

// stage records iv as k's pending interval for the load in progress.
func (c *Checker) stage(k consKey, iv intervals.Interval) {
	for i := range c.pending {
		if c.pending[i].key == k {
			c.pending[i].iv = iv
			return
		}
	}
	c.pending = append(c.pending, pendingEntry{key: k, iv: iv})
}

// deferring reports whether thread t is inside a checksum region. The
// length check keeps loads outside any region off the map.
func (c *Checker) deferring(t memmodel.ThreadID) bool {
	if len(c.deferred) == 0 {
		return false
	}
	_, in := c.deferred[t]
	return in
}

// idOf returns the dense id of violation identity vk, numbering it and
// formatting its Key string at first sight in the world.
func (c *Checker) idOf(vk violationKey) int32 {
	id, ok := c.ids[vk.word()]
	if !ok {
		id = int32(len(c.keyStrs))
		c.ids[vk.word()] = id
		c.keyStrs = append(c.keyStrs, bugKey(vk.kind, c.tr.LocString(vk.mfLoc), c.tr.LocString(vk.perLoc)))
		c.knownAt = append(c.knownAt, 0)
	}
	return id
}

// isSeen reports whether violation id was recorded or found known in this
// execution.
func (c *Checker) isSeen(id int32) bool { return int(id) < len(c.seen) && c.seen[id] }

// markSeen adds violation id to the execution's seen set.
func (c *Checker) markSeen(id int32) {
	for int(id) >= len(c.seen) {
		c.seen = append(c.seen, false)
	}
	c.seen[id] = true
}

// isKnown asks the known-key predicate about violation id, answering
// from the cache for an id it called known since the last Reset.
func (c *Checker) isKnown(id int32) bool {
	if c.knownAt[id] == c.gen {
		return true
	}
	if !c.known(c.keyStrs[id]) {
		return false
	}
	c.knownAt[id] = c.gen
	return true
}

// stampTable returns the applied-read table that holds rf's stamp and
// rf's index in it.
func (c *Checker) stampTable(rf *trace.Store) (*[]uint32, int) {
	if rf.Initial {
		return &c.appliedInit, int(-rf.ID - 1)
	}
	return &c.applied, int(rf.ID)
}

// stamped reports whether rf carries the current applied-read stamp.
func (c *Checker) stamped(rf *trace.Store) bool {
	tab, i := c.stampTable(rf)
	return i < len(*tab) && (*tab)[i] == c.stamp
}

// stampRead marks rf's read as applied in the current sub-execution.
func (c *Checker) stampRead(rf *trace.Store) {
	tab, i := c.stampTable(rf)
	if i >= len(*tab) {
		*tab = slices.Grow(*tab, i+1-len(*tab))[:i+1]
	}
	(*tab)[i] = c.stamp
}

// updatesFor computes the constraint updates a read of rf by a load in
// the current sub-execution implies. It returns nil when the read is
// within the current sub-execution (nothing to check) or re-reads a
// store stamped as applied (nothing to tighten). The returned slice is
// a checker-owned scratch buffer, valid until the next updatesFor call.
func (c *Checker) updatesFor(rf *trace.Store) []update {
	if c.disabled {
		return nil
	}
	cur := c.tr.Current()
	if rf == nil || rf.SubExec == cur.Index && !rf.Initial {
		return nil
	}
	if rf.Initial && cur.Index == 0 {
		return nil
	}
	if cur.Index != c.stampSub {
		// A new sub-execution adds intervening stores to every read.
		c.stampSub = cur.Index
		c.nextStamp()
	} else if c.stamped(rf) {
		return nil
	}
	if c.opt.GlobalInterval {
		return c.updatesGlobal(rf, cur.Index)
	}
	c.ups = c.ups[:0]
	e := c.tr.GetExec(rf)
	// C0 (implications 4.1 and 4.3): every thread of rf's sub-execution
	// crashed no earlier than its last store happening before rf. For
	// rf's own thread that is rf itself. Initial stores have an empty
	// clock vector, so they contribute no lower bounds.
	if !rf.Initial {
		for i, n := 0, c.tr.CVLen(rf); i < n; i++ {
			tau, clk := c.tr.CVComp(rf, i)
			if c.opt.NoHBClosure && tau != rf.Thread {
				continue // ablation: drop implication 4.3
			}
			c.ups = append(c.ups, update{
				key:   consKey{e.Index, tau},
				lo:    true,
				clock: clk,
				store: e.StoreByClock(tau, clk),
			})
		}
	}
	// Implication 4.2 extended across sub-executions (§4.4): the first
	// store to the location per thread, TSO-after rf or in intervening
	// sub-executions, must not have committed before its crash.
	for _, st := range c.tr.Next(rf, cur.Index) {
		c.ups = append(c.ups, update{
			key:   consKey{st.SubExec, st.Thread},
			lo:    false,
			clock: st.Clock,
			store: st,
		})
	}
	return c.ups
}

// updatesGlobal is the §4.2.1 naïve variant: one interval per
// sub-execution over TSO sequence numbers.
func (c *Checker) updatesGlobal(rf *trace.Store, cur int) []update {
	c.ups = c.ups[:0]
	if !rf.Initial {
		c.ups = append(c.ups, update{
			key:   consKey{rf.SubExec, globalThread},
			lo:    true,
			clock: vclock.Clock(rf.Seq),
			store: rf,
		})
	}
	for _, st := range c.tr.Next(rf, cur) {
		c.ups = append(c.ups, update{
			key:   consKey{st.SubExec, globalThread},
			lo:    false,
			clock: vclock.Clock(st.Seq),
			store: st,
		})
	}
	return c.ups
}

// applyMode selects how applyUpdates treats the constraint state.
type applyMode int

const (
	// modeCheck: speculative — neither constraints nor violations are
	// recorded.
	modeCheck applyMode = iota
	// modeObserve: the read happened — commit constraints and record
	// violations.
	modeObserve
	// modeFlag: the read was possible but steered around — record the
	// violations it would cause, but commit nothing.
	modeFlag
)

// applyUpdates applies the updates to the constraint state and reports
// whether any of them emptied an interval. In modeObserve, non-violating
// updates are recorded; an update that would empty an interval is
// reported but not recorded, so the checker can keep scanning the rest
// of the execution for further independent bugs (§5.2 Implementation).
// A modeObserve read none of whose updates emptied is stamped as applied.
//
// In modeObserve and modeFlag an emptying update whose violation
// identity is already in the seen set is skipped before any report is
// materialized: the diagnosis was recorded (with fixes) the first time,
// and a re-run of diagnose would freeze three StoreRefs only for the
// post-loop dedup to throw the copy away. Workloads that keep re-reading
// a bugged location spend most of their checking time there. Callers
// therefore see each distinct violation in a return value exactly once
// per execution. An identity not yet seen is checked against the
// campaign's known keys (SetKnown) first: a known one is marked seen and
// skipped the same way, so neither its report nor its fixes are built.
func (c *Checker) applyUpdates(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID, ups []update, mode applyMode) (found []*Violation, emptied bool) {
	if len(ups) == 0 {
		// Same-sub-execution reads and re-reads of stamped stores
		// constrain nothing — most loads take this path.
		return nil, false
	}
	// modeObserve commits each update as it goes, so later updates of
	// the load read it back from the rows; the other modes stage it.
	c.pending = c.pending[:0]
	for i := range ups {
		u := &ups[i]
		cur := c.current(u.key)
		if cur != nil && !u.tightens(cur) {
			// A recorded interval is never empty, and this one stays
			// as it is.
			continue
		}
		next := u.narrow(cur)
		if next.Empty() {
			emptied = true
			before := intervals.New()
			if cur != nil {
				before = *cur
			}
			id := c.idOf(violationKeyFor(rf, u, before))
			if mode != modeCheck {
				if c.isSeen(id) {
					continue // already recorded; skip re-materializing
				}
				if c.known != nil && c.isKnown(id) {
					c.markSeen(id) // the campaign holds it already
					continue
				}
			}
			v := c.diagnose(t, addr, rf, loc, u, before, next, id)
			found = append(found, v)
			continue // do not record the emptying constraint
		}
		switch {
		case mode != modeObserve:
			c.stage(u.key, next)
		case cur != nil:
			*cur = next // pending is empty, so cur is in its row
		default:
			c.commit(u.key, next)
		}
	}
	if mode == modeObserve && !emptied {
		c.stampRead(rf)
	}
	if mode != modeCheck {
		for _, v := range found {
			if !c.isSeen(v.id) {
				c.markSeen(v.id)
				// Fix synthesis walks the event log, so it runs only
				// when a bug is first recorded, keeping the per-load
				// checking cost flat (Table 3's minimal-overhead claim).
				v.Fixes = c.computeFixes(v)
				if c.prov {
					v.Prov = c.computeProvenance(v)
				}
				c.violations = append(c.violations, v)
			}
		}
	}
	return found, emptied
}

// locOf returns a store's interned label (NoLoc for nil).
func locOf(s *trace.Store) trace.LocID {
	if s == nil {
		return trace.NoLoc
	}
	s.CheckLive()
	return s.Loc
}

// violationKeyFor derives the dedup identity of the violation an
// emptying update would diagnose, without materializing the report. It
// mirrors diagnose's case split: a lower-bound update that passed the
// recorded upper bound is a read-too-new whose missing flush is the
// store that set that upper bound; an upper-bound update that passed the
// recorded lower bound is a read-too-old whose missing flush is the
// update's own store.
func violationKeyFor(rf *trace.Store, u *update, before intervals.Interval) violationKey {
	if u.lo {
		mf, _ := before.Hi.Store.(*trace.Store)
		return violationKey{kind: ReadTooNew, mfLoc: locOf(mf), perLoc: locOf(rf)}
	}
	per, _ := before.Lo.Store.(*trace.Store)
	return violationKey{kind: ReadTooOld, mfLoc: locOf(u.store), perLoc: locOf(per)}
}

// diagnose builds the violation report, of identity id, for an update
// that emptied an interval, per the two cases of §5.2. Every store
// reference is frozen here, so the report survives trace recycling.
func (c *Checker) diagnose(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID, u *update, before, after intervals.Interval, id int32) *Violation {
	v := &Violation{
		LoadLoc:    c.tr.LocString(loc),
		LoadThread: t,
		ReadFrom:   c.freeze(rf),
		SubExec:    u.key.subExec,
		Thread:     u.key.thread,
		Interval: intervals.Interval{
			Lo: c.freezeEndpoint(after.Lo),
			Hi: c.freezeEndpoint(after.Hi),
		},
	}
	var mf, per *trace.Store
	if u.lo {
		// The new lower bound passed the recorded upper bound: the load
		// observed a too-new store. The store that set the interval's
		// end is the one missing the flush.
		v.Kind = ReadTooNew
		mf, _ = before.Hi.Store.(*trace.Store)
		per = rf
	} else {
		// The new upper bound passed the recorded lower bound: the load
		// read a too-old store; the upper bound's store (the TSO-later
		// store to the same location) is missing a flush, and the lower
		// bound's store was observed persisted.
		v.Kind = ReadTooOld
		mf = u.store
		per, _ = before.Lo.Store.(*trace.Store)
	}
	v.MissingFlush = c.freeze(mf)
	v.Persisted = c.freeze(per)
	v.id = id
	v.key = c.keyStrs[id]
	return v
}

// CheckRead reports the violations that a load by thread t of addr would
// cause if it read from rf, without changing the checker state. Tests
// use it to predict a read's outcome; the explorer steers with FlagRead.
func (c *Checker) CheckRead(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID) []*Violation {
	if c.deferring(t) {
		return nil // inside a checksum region the read would be deferred
	}
	found, _ := c.applyUpdates(t, addr, rf, loc, c.updatesFor(rf), modeCheck)
	return found
}

// FlagRead reports whether a load by thread t reading rf would cause at
// least one robustness violation, and records the violations not yet
// seen without committing any constraints. The explorer asks it of every
// candidate it steers: the buggy outcome is reachable and must be
// reported even though this execution avoids it. Inside a checksum
// region the read would be deferred, so it cannot violate yet.
func (c *Checker) FlagRead(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID) bool {
	if c.deferring(t) {
		return false
	}
	_, emptied := c.applyUpdates(t, addr, rf, loc, c.updatesFor(rf), modeFlag)
	return emptied
}

// ObserveRead records a load that has been performed: thread t read rf
// at addr. It returns any new violations. Inside a checksum region the
// read is deferred instead (§6.4).
func (c *Checker) ObserveRead(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID) []*Violation {
	if c.deferring(t) {
		c.deferred[t] = append(c.deferred[t], deferredLoad{thread: t, addr: addr, rf: rf, loc: loc})
		return nil
	}
	found, _ := c.applyUpdates(t, addr, rf, loc, c.updatesFor(rf), modeObserve)
	return found
}

// BeginChecksumRegion starts deferring thread t's cross-crash reads: the
// program is reading checksummed data it may discard (§6.4 Harmless
// Violations).
func (c *Checker) BeginChecksumRegion(t memmodel.ThreadID) {
	if _, in := c.deferred[t]; !in {
		c.deferred[t] = []deferredLoad{}
	}
}

// EndChecksumRegion finishes a checksum region. If the checksum validated
// the loads are processed now and any violations returned; if validation
// failed the program discards the data, so the loads constrain nothing.
func (c *Checker) EndChecksumRegion(t memmodel.ThreadID, valid bool) []*Violation {
	loads, in := c.deferred[t]
	if !in {
		return nil
	}
	delete(c.deferred, t)
	if !valid {
		return nil
	}
	var all []*Violation
	for _, dl := range loads {
		found, _ := c.applyUpdates(dl.thread, dl.addr, dl.rf, dl.loc, c.updatesFor(dl.rf), modeObserve)
		all = append(all, found...)
	}
	return all
}
