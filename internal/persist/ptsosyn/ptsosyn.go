// Package ptsosyn implements the PTSOsyn persistency semantics of
// Khyzha & Lahav ("Taming x86-TSO Persistency", POPL 2021): a
// synchronous reformulation of Px86 in which each cache line has its
// own persistence buffer and asynchronous flushes become in-buffer
// markers. On the op vocabulary of this simulator PTSOsyn is
// observationally equivalent to Px86sim — same committed histories,
// same guaranteed-prefix evolution, same post-crash candidate sets —
// while being operationally simpler to state:
//
//   - stores commit from TSO store buffers into their line's
//     persistence buffer (the live epoch history);
//   - clflush empties the line's persistence buffer synchronously at
//     store-buffer exit: everything committed so far is persistent;
//   - clflushopt deposits a marker in the line's persistence buffer at
//     the current depth; a later drain (sfence/mfence/RMW) by the same
//     thread guarantees persistence up to that thread's markers;
//   - a crash discards store buffers and unfulfilled markers and seals
//     each line's history with the persisted-prefix range [guaranteed,
//     committed].
//
// The equivalence with px86 (which tracks exited clflushopt coverage
// per thread instead of per line) is exercised by the cross-model
// property tests in internal/persist and the differential runner in
// internal/explore: identical traces, candidate orders, fingerprints,
// and violation sets on every benchmark.
package ptsosyn

import (
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/trace"
)

func init() {
	persist.Register(persist.Info{
		Name:        "ptsosyn",
		Description: "PTSOsyn (Khyzha-Lahav): per-line persistence buffers with flush markers; equivalent to px86",
		Weak:        true,
	}, func(cfg persist.Config) persist.Model {
		return New(Config{
			DelayedCommit: cfg.DelayedCommit,
			Window:        cfg.Window,
			Metrics:       obs.PersistInstruments(cfg.Obs.Reg(), "ptsosyn"),
		})
	})
}

// Config controls simulation behavior; DelayedCommit is as in px86.
type Config struct {
	DelayedCommit bool
	// Window, when positive, puts the machine's trace in bounded-window
	// (streaming) mode; see persist.Config.Window.
	Window int
	// Metrics receives per-instruction counters; the zero value disables
	// counting.
	Metrics obs.PersistMetrics
}

// bufEntry is one TSO store-buffer slot: a pending store or a pending
// flush instruction awaiting buffer exit.
type bufEntry struct {
	kind  memmodel.OpKind
	store *trace.Store  // for OpStore/OpCAS/OpFAA
	line  memmodel.Addr // for OpFlush/OpFlushOpt
	loc   trace.LocID
}

// marker is an unfulfilled clflushopt sitting in a line's persistence
// buffer: thread t asked the line to persist up to depth pos; a drain
// by t makes that guarantee real.
type marker struct {
	t   memmodel.ThreadID
	pos int
}

// markerRow is one line's persistence-buffer markers, oldest first.
// listed tells whether the row is on the machine's marked-line list.
type markerRow struct {
	line   memmodel.Addr
	mks    []marker
	listed bool
}

// threadBuf is one thread's TSO store buffer, oldest entry first.
type threadBuf struct {
	t   memmodel.ThreadID
	buf []bufEntry
}

// Machine simulates a PTSOsyn multiprocessor with persistent memory.
// Not safe for concurrent use; drive one Machine per goroutine. As in
// px86, the volatile cache is the tail of the trace's per-word commit
// list (trace.SubExec.LastTo), not a table of its own.
type Machine struct {
	cfg Config
	tr  *trace.Trace
	// buffers holds one row per thread with a store buffer, searched
	// linearly; rows are truncated, not freed, so buffers are reused.
	buffers []threadBuf
	// markers holds each line's unfulfilled flush markers, keyed by line
	// index (addr>>6) — the per-location persistence-buffer content
	// beyond the committed stores themselves (which live in img). Rows
	// are reused across resets like every other paged table. marked
	// lists the rows that may hold markers, so a drain visits those
	// lines only, not every line ever flushed.
	markers trace.Table[markerRow]
	marked  []*markerRow
	img     persist.Image

	cands []persist.Candidate // LoadCandidates scratch
}

// New returns a machine with all of persistent memory zero-initialized.
func New(cfg Config) *Machine {
	m := &Machine{
		cfg: cfg,
		tr:  trace.New(),
	}
	m.img.Init("ptsosyn")
	m.tr.SetWindow(cfg.Window)
	return m
}

// Name implements persist.Model.
func (m *Machine) Name() string { return "ptsosyn" }

// Trace returns the execution trace recorded so far.
func (m *Machine) Trace() *trace.Trace { return m.tr }

// Intern maps a source label to the trace's dense LocID.
func (m *Machine) Intern(loc string) trace.LocID { return m.tr.Intern(loc) }

// Reset rewinds the machine and its trace to the freshly-constructed
// state; see the Model contract.
func (m *Machine) Reset() {
	m.dropBuffers()
	m.dropMarkers()
	m.img.Reset()
	m.tr.Reset()
}

// findBuf returns thread t's buffer row, or nil if t has none.
func (m *Machine) findBuf(t memmodel.ThreadID) *threadBuf {
	for i := range m.buffers {
		if m.buffers[i].t == t {
			return &m.buffers[i]
		}
	}
	return nil
}

// buffer appends e to thread t's store buffer, creating the row on
// first use; a new row reuses the buffer a truncated row left at its
// position.
func (m *Machine) buffer(t memmodel.ThreadID, e bufEntry) {
	tb := m.findBuf(t)
	if tb == nil {
		n := len(m.buffers)
		if n < cap(m.buffers) {
			m.buffers = m.buffers[:n+1]
			m.buffers[n].t = t
		} else {
			m.buffers = append(m.buffers, threadBuf{t: t})
		}
		tb = &m.buffers[n]
	}
	tb.buf = append(tb.buf, e)
}

// dropBuffers discards every store buffer, as a crash does, keeping
// their backing arrays for reuse.
func (m *Machine) dropBuffers() {
	for i := range m.buffers {
		tb := &m.buffers[i]
		clear(tb.buf)
		tb.buf = tb.buf[:0]
	}
	m.buffers = m.buffers[:0]
}

// dropMarkers discards every unfulfilled marker, as a crash does. The
// rows stay in the table for reuse.
func (m *Machine) dropMarkers() {
	m.markers.Reset()
	clear(m.marked)
	m.marked = m.marked[:0]
}

// rowOf returns the marker row of line, emptied if the line had
// none in the current generation.
func (m *Machine) rowOf(line memmodel.Addr) *markerRow {
	row, ok := m.markers.Slot(uint64(line) >> 6)
	if !ok {
		row.line = line
		row.mks = row.mks[:0]
		row.listed = false
	}
	return row
}

// exitEntry applies the oldest store-buffer entry of thread t, per the
// PTSOsyn buffer-exit transitions.
func (m *Machine) exitEntry(t memmodel.ThreadID, e bufEntry) {
	switch e.kind {
	case memmodel.OpFlush:
		// clflush synchronously empties the line's persistence buffer:
		// the whole committed history persists, and every pending marker
		// is trivially fulfilled. The emptied row stays listed until the
		// next drain drops it.
		m.img.Guarantee(e.line)
		row := m.rowOf(e.line)
		row.mks = row.mks[:0]
	case memmodel.OpFlushOpt:
		// clflushopt enters the line's persistence buffer as a marker at
		// the current depth.
		row := m.rowOf(e.line)
		row.mks = append(row.mks, marker{t: t, pos: m.img.LiveLen(e.line)})
		if !row.listed {
			row.listed = true
			m.marked = append(m.marked, row)
		}
	default:
		m.commit(e.store)
	}
}

// commit makes a store globally visible and appends it to its line's
// persistence buffer (the live history).
func (m *Machine) commit(st *trace.Store) {
	m.tr.StoreCommit(st)
	m.img.Commit(st)
}

// DrainAll commits every pending entry of thread t's store buffer, in
// FIFO order. The emptied buffer keeps its backing array.
func (m *Machine) DrainAll(t memmodel.ThreadID) {
	tb := m.findBuf(t)
	if tb == nil {
		return
	}
	for _, e := range tb.buf {
		m.exitEntry(t, e)
	}
	clear(tb.buf)
	tb.buf = tb.buf[:0]
}

// DrainOne commits the oldest pending entry of thread t's store buffer,
// reporting whether there was one. The remaining entries shift down in
// place, so the buffer neither reallocates nor holds on to the drained
// store.
func (m *Machine) DrainOne(t memmodel.ThreadID) bool {
	tb := m.findBuf(t)
	if tb == nil || len(tb.buf) == 0 {
		return false
	}
	m.cfg.Metrics.Drains.Inc()
	m.exitEntry(t, tb.buf[0])
	n := copy(tb.buf, tb.buf[1:])
	tb.buf[n] = bufEntry{}
	tb.buf = tb.buf[:n]
	return true
}

// BufferLen returns the number of pending entries in t's store buffer.
func (m *Machine) BufferLen(t memmodel.ThreadID) int {
	if tb := m.findBuf(t); tb != nil {
		return len(tb.buf)
	}
	return 0
}

// drainCompletes fulfils thread t's markers in every listed line's
// persistence buffer: the line is guaranteed persistent at least up to
// each marker's depth. The guarantee is a running maximum, so the order
// lines are visited in is immaterial. Rows left empty leave the list.
func (m *Machine) drainCompletes(t memmodel.ThreadID) {
	listed := m.marked[:0]
	for _, row := range m.marked {
		kept := row.mks[:0]
		for _, mk := range row.mks {
			if mk.t == t {
				m.img.GuaranteeUpTo(row.line, mk.pos)
			} else {
				kept = append(kept, mk)
			}
		}
		row.mks = kept
		if len(kept) > 0 {
			listed = append(listed, row)
		} else {
			row.listed = false
		}
	}
	clear(m.marked[len(listed):])
	m.marked = listed
}

// Store issues a store of v to word a by thread t; in delayed-commit
// mode it waits in t's TSO buffer.
func (m *Machine) Store(t memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc trace.LocID) *trace.Store {
	m.cfg.Metrics.Stores.Inc()
	st := m.tr.StoreIssue(t, a, v, memmodel.OpStore, loc)
	if m.cfg.DelayedCommit {
		m.buffer(t, bufEntry{kind: memmodel.OpStore, store: st, loc: loc})
	} else {
		m.commit(st)
	}
	return st
}

// Flush issues a clflush of the line containing a; it is ordered
// through the store buffer like a store.
func (m *Machine) Flush(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	m.cfg.Metrics.Flushes.Inc()
	m.tr.Fence(t, memmodel.OpFlush, a.Line(), loc)
	e := bufEntry{kind: memmodel.OpFlush, line: a.Line(), loc: loc}
	if m.cfg.DelayedCommit {
		m.buffer(t, e)
	} else {
		m.exitEntry(t, e)
	}
}

// FlushOpt issues a clflushopt/clwb of the line containing a.
func (m *Machine) FlushOpt(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	m.cfg.Metrics.FlushOpts.Inc()
	m.tr.Fence(t, memmodel.OpFlushOpt, a.Line(), loc)
	e := bufEntry{kind: memmodel.OpFlushOpt, line: a.Line(), loc: loc}
	if m.cfg.DelayedCommit {
		m.buffer(t, e)
	} else {
		m.exitEntry(t, e)
	}
}

// SFence drains t's store buffer and fulfils t's flush markers.
func (m *Machine) SFence(t memmodel.ThreadID, loc trace.LocID) {
	m.cfg.Metrics.Fences.Inc()
	m.tr.Fence(t, memmodel.OpSFence, 0, loc)
	m.DrainAll(t)
	m.drainCompletes(t)
}

// MFence behaves like SFence for persistency purposes.
func (m *Machine) MFence(t memmodel.ThreadID, loc trace.LocID) {
	m.cfg.Metrics.Fences.Inc()
	m.tr.Fence(t, memmodel.OpMFence, 0, loc)
	m.DrainAll(t)
	m.drainCompletes(t)
}

// LoadCandidates returns the stores a load of word a by thread t may
// read, newest-possible first; same contract and ordering as px86.
// The returned slice is machine-owned scratch, valid until the next
// call.
func (m *Machine) LoadCandidates(t memmodel.ThreadID, a memmodel.Addr) []persist.Candidate {
	a = a.Word()
	cands := m.cands[:0]
	// TSO store-buffer forwarding: newest buffered store to a by t.
	if tb := m.findBuf(t); tb != nil {
		for i := len(tb.buf) - 1; i >= 0; i-- {
			if e := tb.buf[i]; e.store != nil && e.store.Addr == a {
				m.cands = append(cands, persist.Candidate{Store: e.store, Epoch: -1})
				return m.cands
			}
		}
	}
	// Committed this sub-execution: the cache holds a definite value.
	if st := m.tr.Current().LastTo(a); st != nil {
		m.cands = append(cands, persist.Candidate{Store: st, Epoch: -1})
		return m.cands
	}
	// Unresolved: walk sealed epochs newest-first.
	cands, blocked := m.img.AppendSealedCandidates(cands, a)
	if !blocked {
		cands = append(cands, persist.Candidate{Store: m.tr.Initial(a), Resolve: true, Epoch: -1})
	}
	m.cands = cands
	return cands
}

// resolve narrows the crash image to the chosen candidate, counting
// resolutions that actually consumed nondeterminism.
func (m *Machine) resolve(a memmodel.Addr, c persist.Candidate, loc trace.LocID) {
	if c.Resolve {
		m.cfg.Metrics.Resolved.Inc()
	}
	m.img.Resolve(a, c, m.tr, loc)
}

// Load performs a load of word a reading from the chosen candidate.
func (m *Machine) Load(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.resolve(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpLoad, loc)
	return c.Store.Value
}

// LoadDefault performs a load reading the newest legal store.
func (m *Machine) LoadDefault(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) memmodel.Value {
	cands := m.LoadCandidates(t, a)
	return m.Load(t, a, cands[0], loc)
}

// rmwBegin: locked RMW operations are drain operations.
func (m *Machine) rmwBegin(t memmodel.ThreadID) {
	m.DrainAll(t)
	m.drainCompletes(t)
}

// CAS performs an atomic compare-and-swap on word a; it acts as a drain
// either way.
func (m *Machine) CAS(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool) {
	a = a.Word()
	m.rmwBegin(t)
	m.resolve(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpCAS, loc)
	old := c.Store.Value
	if old != expected {
		return old, false
	}
	st := m.tr.StoreIssue(t, a, newV, memmodel.OpCAS, loc)
	m.commit(st)
	return old, true
}

// FAA performs an atomic fetch-and-add on word a; like CAS it drains.
func (m *Machine) FAA(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.rmwBegin(t)
	m.resolve(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpFAA, loc)
	old := c.Store.Value
	st := m.tr.StoreIssue(t, a, old+delta, memmodel.OpFAA, loc)
	m.commit(st)
	return old
}

// Crash simulates a power failure: store buffers and unfulfilled flush
// markers are lost, the volatile cache vanishes, and each line's
// history is sealed with its persisted-prefix range.
func (m *Machine) Crash() {
	m.cfg.Metrics.Crashes.Inc()
	m.dropBuffers()
	m.dropMarkers()
	m.img.Seal()
	m.tr.Crash()
}

// PersistFingerprint hashes the persistent state; see the Model
// contract.
func (m *Machine) PersistFingerprint() uint64 { return m.img.Fingerprint() }

// Snapshot captures the machine's persistent state for a later Restore;
// call only immediately after Crash (see the Model contract).
func (m *Machine) Snapshot() *persist.ImageSnapshot { return m.img.Snapshot() }

// Restore rewinds the machine to a previously captured Snapshot; the
// shared trace is rewound by the caller.
func (m *Machine) Restore(snap *persist.ImageSnapshot) {
	m.dropBuffers()
	m.dropMarkers()
	m.img.Restore(snap)
}

// Retire implements persist.Retirable: one bounded-window retirement.
// The machine's roots are TSO-buffered stores and the crash image's
// still-readable entries, which include the volatile cache (the newest
// entry per word of the live epoch); flush markers record (thread,
// depth) pairs and hold no store pointers.
func (m *Machine) Retire(extraRoots func(pin func(*trace.Store))) {
	m.img.Retire(m.tr, m.pinBuffered, extraRoots)
}

// pinBuffered pins the stores still waiting in store buffers.
func (m *Machine) pinBuffered(pin func(*trace.Store)) {
	for _, tb := range m.buffers {
		for _, e := range tb.buf {
			if e.store != nil {
				pin(e.store)
			}
		}
	}
}

// GuaranteedPersistCount mirrors the px86 diagnostic.
func (m *Machine) GuaranteedPersistCount(a memmodel.Addr) int {
	return m.img.GuaranteedCount(a)
}
