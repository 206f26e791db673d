// Package px86 simulates the Intel-x86 persistency model following the
// Px86sim semantics of Raad et al. (POPL 2020), which the paper builds on
// (§2). It is the default persistency-model backend behind the
// persist.Model interface. The simulated machine provides:
//
//   - TSO volatile semantics with per-thread store buffers;
//   - cache-line granular persistence: clflush persists its line
//     synchronously when it leaves the store buffer; clflushopt/clwb are
//     asynchronous and only guaranteed complete after a subsequent drain
//     (mfence, sfence, or a locked RMW) by the same thread;
//   - crash events after which the persistent image of each cache line is
//     some TSO-order prefix of the line's committed stores, no shorter
//     than the prefix guaranteed by completed flushes.
//
// Crash images are resolved lazily, read by read: a post-crash load asks
// the machine for the set of stores it may legally read (LoadCandidates),
// an exploration policy picks one, and the machine narrows the remaining
// nondeterminism so later reads stay consistent with the choice. This is
// the same read-centric exploration style as the Jaaru model checker the
// paper builds PSan upon. The sealed-epoch bookkeeping itself lives in
// persist.Image, shared with the other backends.
package px86

import (
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/trace"
)

// InvariantError is the typed panic raised on crash-image inconsistency;
// it now lives in persist so every backend shares the explorer's panic
// classification. Kept as an alias for existing call sites.
type InvariantError = persist.InvariantError

// Candidate is the model-neutral post-crash read candidate; kept as an
// alias for existing call sites.
type Candidate = persist.Candidate

// Config controls simulation behavior.
type Config struct {
	// DelayedCommit keeps stores in per-thread store buffers until a
	// fence, RMW, or explicit Drain call commits them, exposing TSO
	// store-buffer effects. When false (the default), stores commit to
	// the cache immediately after issue, which is a legal TSO behavior
	// and keeps model-checking tractable.
	DelayedCommit bool
	// Window, when positive, puts the machine's trace in bounded-window
	// (streaming) mode; see persist.Config.Window.
	Window int
	// Metrics receives per-instruction counters. The zero value (all-nil
	// instruments) disables counting; every increment is then a nil-check
	// no-op.
	Metrics obs.PersistMetrics
}

func init() {
	persist.Register(persist.Info{
		Name:        "px86",
		Description: "Px86sim (Raad et al.): TSO buffers, async clflushopt completed by drains",
		Weak:        true,
	}, func(cfg persist.Config) persist.Model {
		return New(Config{
			DelayedCommit: cfg.DelayedCommit,
			Window:        cfg.Window,
			Metrics:       obs.PersistInstruments(cfg.Obs.Reg(), "px86"),
		})
	})
}

// bufEntry is one store-buffer slot: a pending store or a pending flush.
type bufEntry struct {
	kind  memmodel.OpKind
	store *trace.Store  // for OpStore/OpCAS/OpFAA
	line  memmodel.Addr // for OpFlush/OpFlushOpt
	loc   trace.LocID
}

// pendingFlush is a clflushopt that has left the store buffer but whose
// persistence is not yet guaranteed by a drain.
type pendingFlush struct {
	line     memmodel.Addr
	coverage int // line-history length at buffer exit
}

// threadState is one thread's volatile machine state: its store buffer
// (oldest entry first) and its exited-but-undrained clflushopts.
type threadState struct {
	t       memmodel.ThreadID
	buf     []bufEntry
	pending []pendingFlush
}

// Machine is a simulated Px86 multiprocessor with persistent memory.
// It is not safe for concurrent use: simulated threads are interleaved
// by the caller (the exploration harness), not by goroutines. A Machine
// holds no package-level state, so distinct Machines may be driven from
// distinct goroutines concurrently — the parallel exploration engine
// relies on exactly this one-world-per-goroutine discipline.
//
// The volatile cache — the last store committed to each word in the
// current sub-execution — is not kept here: it is the tail of the
// trace's per-word commit list (trace.SubExec.LastTo).
type Machine struct {
	cfg Config
	tr  *trace.Trace
	// threads holds one row per thread with buffered or pending state,
	// searched linearly: thread IDs are few and not dense. Rows are
	// truncated, not freed, so their buffers are reused.
	threads []threadState
	img     persist.Image

	// cands is the scratch buffer LoadCandidates returns; see its
	// contract.
	cands []Candidate
}

// New returns a machine with all of persistent memory zero-initialized.
func New(cfg Config) *Machine {
	m := &Machine{
		cfg: cfg,
		tr:  trace.New(),
	}
	m.img.Init("px86")
	m.tr.SetWindow(cfg.Window)
	return m
}

// Name implements persist.Model.
func (m *Machine) Name() string { return "px86" }

// Trace returns the execution trace recorded so far.
func (m *Machine) Trace() *trace.Trace { return m.tr }

// Intern maps a source label to the trace's dense LocID, the form every
// instruction method takes.
func (m *Machine) Intern(loc string) trace.LocID { return m.tr.Intern(loc) }

// Reset rewinds the machine (and its trace) to the freshly-constructed
// state, recycling the trace arenas, the cache-line records, and the
// sealed epochs. The trace's intern table is kept. Pointers previously
// obtained from the machine or its trace become invalid.
func (m *Machine) Reset() {
	m.dropVolatile()
	m.img.Reset()
	m.tr.Reset()
}

// --- store buffer mechanics ---

// findThread returns thread t's row, or nil if t has none.
func (m *Machine) findThread(t memmodel.ThreadID) *threadState {
	for i := range m.threads {
		if m.threads[i].t == t {
			return &m.threads[i]
		}
	}
	return nil
}

// thread returns thread t's row, creating it on first use; a new row
// reuses the buffers a truncated row left at its position. The pointer
// is valid until the next row creation.
func (m *Machine) thread(t memmodel.ThreadID) *threadState {
	if ts := m.findThread(t); ts != nil {
		return ts
	}
	n := len(m.threads)
	if n < cap(m.threads) {
		m.threads = m.threads[:n+1]
		ts := &m.threads[n]
		ts.t = t
		return ts
	}
	m.threads = append(m.threads, threadState{t: t})
	return &m.threads[n]
}

// dropVolatile discards every store buffer and pending flush, as a
// crash does, keeping the rows' backing arrays for reuse.
func (m *Machine) dropVolatile() {
	for i := range m.threads {
		ts := &m.threads[i]
		clear(ts.buf)
		ts.buf = ts.buf[:0]
		ts.pending = ts.pending[:0]
	}
	m.threads = m.threads[:0]
}

// buffer appends e to thread t's store buffer.
func (m *Machine) buffer(t memmodel.ThreadID, e bufEntry) {
	ts := m.thread(t)
	ts.buf = append(ts.buf, e)
}

// exitEntry applies the oldest store-buffer entry of thread t to the
// cache, per the Px86sim buffer-exit transitions.
func (m *Machine) exitEntry(t memmodel.ThreadID, e bufEntry) {
	switch e.kind {
	case memmodel.OpFlush:
		// clflush persists the line synchronously at buffer exit: every
		// store committed to the line so far is guaranteed persistent.
		m.img.Guarantee(e.line)
	case memmodel.OpFlushOpt:
		// clflushopt writes the line back asynchronously; completion is
		// guaranteed only by a later drain of the same thread. Record
		// the coverage (stores committed at buffer exit).
		ts := m.thread(t)
		ts.pending = append(ts.pending, pendingFlush{line: e.line, coverage: m.img.LiveLen(e.line)})
	default:
		m.commit(e.store)
	}
}

// commit applies [STORE COMMIT]: the store becomes globally visible and
// joins its cache line's history.
func (m *Machine) commit(st *trace.Store) {
	m.tr.StoreCommit(st)
	m.img.Commit(st)
}

// DrainAll commits every pending entry of thread t's store buffer, in
// FIFO order. The emptied buffer keeps its backing array.
func (m *Machine) DrainAll(t memmodel.ThreadID) {
	ts := m.findThread(t)
	if ts == nil {
		return
	}
	for _, e := range ts.buf {
		m.exitEntry(t, e)
	}
	clear(ts.buf)
	ts.buf = ts.buf[:0]
}

// DrainOne commits the oldest pending entry of thread t's store buffer,
// reporting whether there was one. Exploration harnesses use it to
// exercise store-buffer interleavings in delayed-commit mode. The
// remaining entries shift down in place, so the buffer neither
// reallocates nor holds on to the drained store.
func (m *Machine) DrainOne(t memmodel.ThreadID) bool {
	ts := m.findThread(t)
	if ts == nil || len(ts.buf) == 0 {
		return false
	}
	m.cfg.Metrics.Drains.Inc()
	m.exitEntry(t, ts.buf[0])
	n := copy(ts.buf, ts.buf[1:])
	ts.buf[n] = bufEntry{}
	ts.buf = ts.buf[:n]
	return true
}

// BufferLen returns the number of pending entries in t's store buffer.
func (m *Machine) BufferLen(t memmodel.ThreadID) int {
	if ts := m.findThread(t); ts != nil {
		return len(ts.buf)
	}
	return 0
}

// drainCompletes marks thread t's exited clflushopt operations as
// guaranteed persistent (a drain instruction committed).
func (m *Machine) drainCompletes(t memmodel.ThreadID) {
	ts := m.findThread(t)
	if ts == nil {
		return
	}
	for _, pf := range ts.pending {
		m.img.GuaranteeUpTo(pf.line, pf.coverage)
	}
	ts.pending = ts.pending[:0]
}

// --- instruction interface ---

// Store issues a store of v to word a by thread t. In delayed-commit
// mode the store waits in t's buffer; otherwise it commits immediately.
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

// Flush issues a clflush of the line containing a. It enters the store
// buffer like a store (clflush is ordered like a store, §2).
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

// FlushOpt issues a clflushopt/clwb of the line containing a. Its
// persistence is guaranteed only after a subsequent drain by t.
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

// SFence issues a store fence: it drains t's store buffer and completes
// t's outstanding clflushopt operations.
func (m *Machine) SFence(t memmodel.ThreadID, loc trace.LocID) {
	m.cfg.Metrics.Fences.Inc()
	m.tr.Fence(t, memmodel.OpSFence, 0, loc)
	m.DrainAll(t)
	m.drainCompletes(t)
}

// MFence issues a full fence; for persistency purposes it behaves like
// SFence (both are drain operations).
func (m *Machine) MFence(t memmodel.ThreadID, loc trace.LocID) {
	m.cfg.Metrics.Fences.Inc()
	m.tr.Fence(t, memmodel.OpMFence, 0, loc)
	m.DrainAll(t)
	m.drainCompletes(t)
}

// --- loads and crash-image resolution ---

// LoadCandidates returns the stores a load of word a by thread t may
// read, newest-possible first. Volatile reads (own store buffer, or a
// word written in the current sub-execution) have exactly one candidate.
// Post-crash reads of unresolved words may have several; reading the
// zero-initialized original contents is represented by the synthetic
// initial store.
// The returned slice is a machine-owned scratch buffer, valid only until
// the next LoadCandidates call on the same machine; callers that keep
// more than one candidate set alive must copy.
func (m *Machine) LoadCandidates(t memmodel.ThreadID, a memmodel.Addr) []Candidate {
	a = a.Word()
	cands := m.cands[:0]
	// TSO store-buffer forwarding: newest buffered store to a by t.
	if ts := m.findThread(t); ts != nil {
		for i := len(ts.buf) - 1; i >= 0; i-- {
			if e := ts.buf[i]; e.store != nil && e.store.Addr == a {
				m.cands = append(cands, Candidate{Store: e.store, Epoch: -1})
				return m.cands
			}
		}
	}
	// Committed this sub-execution: the cache holds a definite value.
	if st := m.tr.Current().LastTo(a); st != nil {
		m.cands = append(cands, Candidate{Store: st, Epoch: -1})
		return m.cands
	}
	// Unresolved: walk sealed epochs newest-first.
	cands, blocked := m.img.AppendSealedCandidates(cands, a)
	if !blocked {
		cands = append(cands, Candidate{Store: m.tr.Initial(a), Resolve: true, Epoch: -1})
	}
	m.cands = cands
	return cands
}

// resolveChoice narrows epoch ranges so that future reads agree with the
// chosen candidate. loc is the access's interned location, carried into
// the InvariantError panic raised when narrowing exposes an internal
// inconsistency.
func (m *Machine) resolveChoice(a memmodel.Addr, c Candidate, loc trace.LocID) {
	if c.Resolve {
		m.cfg.Metrics.Resolved.Inc()
	}
	m.img.Resolve(a, c, m.tr, loc)
}

// Load performs a load of word a by thread t reading from the chosen
// candidate, which must come from LoadCandidates for the same (t, a).
// It returns the loaded value.
func (m *Machine) Load(t memmodel.ThreadID, a memmodel.Addr, c Candidate, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.resolveChoice(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpLoad, loc)
	return c.Store.Value
}

// LoadDefault performs a load reading the newest legal store — the
// behavior of an execution where everything persisted. It is the
// convenient entry point for code running before any crash.
func (m *Machine) LoadDefault(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) memmodel.Value {
	cands := m.LoadCandidates(t, a)
	return m.Load(t, a, cands[0], loc)
}

// rmwBegin drains the thread's store buffer (locked instructions flush
// the buffer) and completes its pending clflushopt operations: locked
// RMW operations are drain operations (§2).
func (m *Machine) rmwBegin(t memmodel.ThreadID) {
	m.DrainAll(t)
	m.drainCompletes(t)
}

// CAS performs an atomic compare-and-swap on word a: it reads from the
// chosen candidate, and if the value equals expected, commits a store of
// newV. It returns the value read and whether the swap happened. CAS is
// analyzed as a load immediately followed by a store (§5) and acts as a
// drain either way.
func (m *Machine) CAS(t memmodel.ThreadID, a memmodel.Addr, c Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool) {
	a = a.Word()
	m.rmwBegin(t)
	m.resolveChoice(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpCAS, loc)
	old := c.Store.Value
	if old != expected {
		return old, false
	}
	st := m.tr.StoreIssue(t, a, newV, memmodel.OpCAS, loc)
	m.commit(st)
	return old, true
}

// FAA performs an atomic fetch-and-add on word a reading from the chosen
// candidate, returning the previous value. Like CAS it drains.
func (m *Machine) FAA(t memmodel.ThreadID, a memmodel.Addr, c Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.rmwBegin(t)
	m.resolveChoice(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpFAA, loc)
	old := c.Store.Value
	st := m.tr.StoreIssue(t, a, old+delta, memmodel.OpFAA, loc)
	m.commit(st)
	return old
}

// Crash simulates a power failure: store buffers and outstanding
// clflushopt operations are lost, the volatile cache vanishes, and each
// cache line's committed history is sealed into an epoch whose persisted
// prefix is any length from the flush-guaranteed lower bound up to the
// full history. A new sub-execution begins.
func (m *Machine) Crash() {
	m.cfg.Metrics.Crashes.Inc()
	m.dropVolatile()
	m.img.Seal()
	m.tr.Crash()
}

// PersistFingerprint hashes the machine's persistent state: every cache
// line's sealed store history (IDs and values) together with its
// persisted-prefix bounds. Call it immediately after Crash, when the
// live epochs are empty — two machines with equal fingerprints then
// present identical candidate sets to every future post-crash load.
// Store IDs are deterministic per instruction-stream prefix, so across
// executions of one deterministically replayed program, equal
// fingerprints mean the surviving images are the same image, not merely
// similar ones.
func (m *Machine) PersistFingerprint() uint64 { return m.img.Fingerprint() }

// Snapshot captures the machine's persistent state for a later Restore.
// Call it only immediately after Crash: store buffers, pending flushes,
// and the volatile cache are then empty, so the crash image's sealed
// bounds are the whole machine state.
func (m *Machine) Snapshot() *persist.ImageSnapshot { return m.img.Snapshot() }

// Restore rewinds the machine to a previously captured Snapshot. The
// volatile state rebuilt since the snapshot is dropped (it was empty at
// the snapshot point) and the crash image is rewound. The shared trace
// is rewound by the caller.
func (m *Machine) Restore(snap *persist.ImageSnapshot) {
	m.dropVolatile()
	m.img.Restore(snap)
}

// Retire implements persist.Retirable: one bounded-window retirement of
// the machine's trace. The machine's own roots are buffered stores still
// waiting to commit and every crash-image entry that can still become a
// read candidate. The volatile cache needs no pin of its own: its
// content, the newest committed store per word, is the newest entry of
// that word in the live epoch, which the image always pins. Pending
// clflushopt records hold line coverage counts, not stores.
func (m *Machine) Retire(extraRoots func(pin func(*trace.Store))) {
	m.img.Retire(m.tr, m.pinBuffered, extraRoots)
}

// pinBuffered pins the stores still waiting in store buffers.
func (m *Machine) pinBuffered(pin func(*trace.Store)) {
	for _, ts := range m.threads {
		for _, e := range ts.buf {
			if e.store != nil {
				pin(e.store)
			}
		}
	}
}

// GuaranteedPersistCount returns how many committed stores to the line
// containing a are guaranteed persistent in the current sub-execution.
// It exists for tests and diagnostics.
func (m *Machine) GuaranteedPersistCount(a memmodel.Addr) int {
	return m.img.GuaranteedCount(a)
}
