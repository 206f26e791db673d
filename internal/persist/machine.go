package persist

import (
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// rule is a backend's persistence rule: when a committed store becomes
// guaranteed persistent, the one thing the built-in backends disagree
// on. The machine calls it as each clflush and clflushopt of thread t
// leaves its store buffer and at each drain (sfence, mfence, or a
// locked RMW) by t; drop discards the rule's volatile state at a crash,
// a Reset or a Restore. Rules act on the crash image they were built
// over and touch nothing else.
type rule interface {
	flush(t memmodel.ThreadID, line memmodel.Addr)
	flushOpt(t memmodel.ThreadID, line memmodel.Addr)
	drain(t memmodel.ThreadID)
	drop()
}

// committer is implemented by rules under which a store's commit
// itself guarantees persistence (strict). The machine resolves the hook
// once, so the other rules' commits pay a nil check, not a call.
type committer interface {
	committed(st *trace.Store)
}

// bufEntry is one store-buffer slot: a pending store or a pending flush.
type bufEntry struct {
	kind  memmodel.OpKind
	store *trace.Store  // for OpStore
	line  memmodel.Addr // for OpFlush/OpFlushOpt
}

// perThread holds one row of Ts per thread that has any, searched
// linearly: thread IDs are few and not dense. Rows are truncated, not
// freed, so their slices are reused.
type perThread[T any] struct {
	rows []threadRow[T]
}

type threadRow[T any] struct {
	t    memmodel.ThreadID
	vals []T
}

// find returns thread t's row, or nil if t has none.
func (p *perThread[T]) find(t memmodel.ThreadID) *threadRow[T] {
	for i := range p.rows {
		if p.rows[i].t == t {
			return &p.rows[i]
		}
	}
	return nil
}

// get returns thread t's row, creating it on first use; a new row
// reuses the slice a truncated row left at its position. The pointer is
// valid until the next row creation.
func (p *perThread[T]) get(t memmodel.ThreadID) *threadRow[T] {
	if r := p.find(t); r != nil {
		return r
	}
	n := len(p.rows)
	if n < cap(p.rows) {
		p.rows = p.rows[:n+1]
		p.rows[n].t = t
	} else {
		p.rows = append(p.rows, threadRow[T]{t: t})
	}
	return &p.rows[n]
}

// drop empties every row, keeping the backing arrays for reuse.
func (p *perThread[T]) drop() {
	for i := range p.rows {
		r := &p.rows[i]
		clear(r.vals)
		r.vals = r.vals[:0]
	}
	p.rows = p.rows[:0]
}

// machine is the simulated x86 multiprocessor with persistent memory
// behind every built-in backend. It provides
//
//   - TSO volatile semantics: per-thread store buffers (with
//     DelayedCommit) holding stores and flushes in program order, and
//     store-to-load forwarding;
//   - cache-line granular persistence through the shared crash Image,
//     with the rule deciding when committed stores become guaranteed;
//   - crash events after which the persistent image of each cache line
//     is some TSO-order prefix of the line's committed stores, no
//     shorter than the guaranteed prefix.
//
// Crash images are resolved lazily, read by read: a post-crash load asks
// the machine for the set of stores it may legally read (LoadCandidates),
// an exploration policy picks one, and the machine narrows the remaining
// nondeterminism so later reads stay consistent with the choice — the
// read-centric exploration style of the Jaaru model checker the paper
// builds PSan upon.
//
// A machine holds no package-level state, so distinct machines may be
// driven from distinct goroutines concurrently. The volatile cache — the
// last store committed to each word in the current sub-execution — is
// the tail of the trace's per-word commit list (trace.SubExec.LastTo).
type machine struct {
	name     string
	delayed  bool
	met      obs.PersistMetrics // zero value (all nil) = counting disabled
	tr       *trace.Trace
	img      Image
	rule     rule
	onCommit func(*trace.Store) // the rule's committer hook, or nil
	bufs     perThread[bufEntry]

	// cands is the scratch buffer LoadCandidates returns; see its
	// contract.
	cands []Candidate
}

// newMachine returns a machine of the named backend, with all of
// persistent memory zero-initialized, whose rule newRule builds over
// the machine's own crash image.
func newMachine(name string, cfg Config, newRule func(*Image) rule) *machine {
	m := &machine{
		name:    name,
		delayed: cfg.DelayedCommit,
		met:     obs.PersistInstruments(cfg.Obs.Reg(), name),
		tr:      trace.New(),
	}
	m.img.Init(name, m.tr)
	m.rule = newRule(&m.img)
	if c, ok := m.rule.(committer); ok {
		m.onCommit = c.committed
	}
	m.tr.SetWindow(cfg.Window)
	return m
}

func (m *machine) Name() string                  { return m.name }
func (m *machine) Trace() *trace.Trace           { return m.tr }
func (m *machine) Intern(loc string) trace.LocID { return m.tr.Intern(loc) }

// Reset rewinds the machine (and its trace) to the freshly-constructed
// state, recycling the trace arenas, the cache-line records, and the
// sealed epochs. The trace's intern table is kept.
func (m *machine) Reset() {
	m.dropVolatile()
	m.img.Reset()
	m.tr.Reset()
}

// dropVolatile discards every store buffer and the rule's pending
// flushes, as a crash does.
func (m *machine) dropVolatile() {
	m.bufs.drop()
	m.rule.drop()
}

// issue sends e through thread t's store buffer: it waits there in
// delayed-commit mode and leaves it at once otherwise.
func (m *machine) issue(t memmodel.ThreadID, e bufEntry) {
	if m.delayed {
		r := m.bufs.get(t)
		r.vals = append(r.vals, e)
	} else {
		m.exitEntry(t, e)
	}
}

// exitEntry applies a store-buffer entry of thread t as it leaves the
// buffer: a store commits, a flush goes to the rule.
func (m *machine) exitEntry(t memmodel.ThreadID, e bufEntry) {
	switch e.kind {
	case memmodel.OpFlush:
		m.rule.flush(t, e.line)
	case memmodel.OpFlushOpt:
		m.rule.flushOpt(t, e.line)
	default:
		m.commit(e.store)
	}
}

// commit applies [STORE COMMIT]: the store becomes globally visible and
// joins its cache line's history.
func (m *machine) commit(st *trace.Store) {
	m.tr.StoreCommit(st)
	m.img.Commit(st)
	if m.onCommit != nil {
		m.onCommit(st)
	}
}

// drainAll commits every pending entry of thread t's store buffer, in
// FIFO order. The emptied buffer keeps its backing array.
func (m *machine) drainAll(t memmodel.ThreadID) {
	r := m.bufs.find(t)
	if r == nil {
		return
	}
	for _, e := range r.vals {
		m.exitEntry(t, e)
	}
	clear(r.vals)
	r.vals = r.vals[:0]
}

// DrainOne commits the oldest pending entry of thread t's store buffer,
// reporting whether there was one. The remaining entries shift down in
// place, so the buffer neither reallocates nor holds on to the drained
// store.
func (m *machine) DrainOne(t memmodel.ThreadID) bool {
	r := m.bufs.find(t)
	if r == nil || len(r.vals) == 0 {
		return false
	}
	m.met.Drains.Inc()
	m.exitEntry(t, r.vals[0])
	n := copy(r.vals, r.vals[1:])
	r.vals[n] = bufEntry{}
	r.vals = r.vals[:n]
	return true
}

// drain is a drain operation by t (sfence, mfence, or a locked RMW): it
// empties t's store buffer and lets the rule complete t's flushes.
func (m *machine) drain(t memmodel.ThreadID) {
	m.drainAll(t)
	m.rule.drain(t)
}

func (m *machine) Store(t memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc trace.LocID) *trace.Store {
	m.met.Stores.Inc()
	st := m.tr.StoreIssue(t, a, v, memmodel.OpStore, loc)
	m.issue(t, bufEntry{kind: memmodel.OpStore, store: st})
	return st
}

// Flush issues a clflush of the line containing a. It enters the store
// buffer like a store (clflush is ordered like a store, §2).
func (m *machine) Flush(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	m.met.Flushes.Inc()
	m.tr.Fence(t, memmodel.OpFlush, a.Line(), loc)
	m.issue(t, bufEntry{kind: memmodel.OpFlush, line: a.Line()})
}

func (m *machine) FlushOpt(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	m.met.FlushOpts.Inc()
	m.tr.Fence(t, memmodel.OpFlushOpt, a.Line(), loc)
	m.issue(t, bufEntry{kind: memmodel.OpFlushOpt, line: a.Line()})
}

func (m *machine) SFence(t memmodel.ThreadID, loc trace.LocID) {
	m.met.Fences.Inc()
	m.tr.Fence(t, memmodel.OpSFence, 0, loc)
	m.drain(t)
}

// MFence issues a full fence; for persistency purposes it behaves like
// SFence (both are drain operations).
func (m *machine) MFence(t memmodel.ThreadID, loc trace.LocID) {
	m.met.Fences.Inc()
	m.tr.Fence(t, memmodel.OpMFence, 0, loc)
	m.drain(t)
}

// LoadCandidates returns the stores a load of word a by thread t may
// read, newest-possible first. Volatile reads (own store buffer, or a
// word written in the current sub-execution) have exactly one candidate.
// Post-crash reads of unresolved words may have several; reading the
// zero-initialized original contents is represented by the synthetic
// initial store.
func (m *machine) LoadCandidates(t memmodel.ThreadID, a memmodel.Addr) []Candidate {
	a = a.Word()
	cands := m.cands[:0]
	// TSO store-buffer forwarding: newest buffered store to a by t.
	if r := m.bufs.find(t); r != nil {
		for i := len(r.vals) - 1; i >= 0; i-- {
			if e := r.vals[i]; e.store != nil && e.store.Addr == a {
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
func (m *machine) resolveChoice(a memmodel.Addr, c Candidate, loc trace.LocID) {
	if c.Resolve {
		m.met.Resolved.Inc()
	}
	m.img.Resolve(a, c, loc)
}

func (m *machine) Load(t memmodel.ThreadID, a memmodel.Addr, c Candidate, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.resolveChoice(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpLoad, loc)
	return c.Store.Value
}

// rmw performs the read half of a locked RMW of kind k: locked
// instructions are drain operations (§2), and the read resolves the
// crash image like a load.
func (m *machine) rmw(t memmodel.ThreadID, a memmodel.Addr, c Candidate, k memmodel.OpKind, loc trace.LocID) memmodel.Value {
	m.drain(t)
	m.resolveChoice(a, c, loc)
	m.tr.Load(t, a, c.Store, k, loc)
	return c.Store.Value
}

// CAS performs an atomic compare-and-swap on word a: it reads from the
// chosen candidate, and if the value equals expected, commits a store of
// newV. CAS is analyzed as a load immediately followed by a store (§5)
// and acts as a drain either way.
func (m *machine) CAS(t memmodel.ThreadID, a memmodel.Addr, c Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool) {
	a = a.Word()
	old := m.rmw(t, a, c, memmodel.OpCAS, loc)
	if old != expected {
		return old, false
	}
	m.commit(m.tr.StoreIssue(t, a, newV, memmodel.OpCAS, loc))
	return old, true
}

func (m *machine) FAA(t memmodel.ThreadID, a memmodel.Addr, c Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value {
	a = a.Word()
	old := m.rmw(t, a, c, memmodel.OpFAA, loc)
	m.commit(m.tr.StoreIssue(t, a, old+delta, memmodel.OpFAA, loc))
	return old
}

// Crash simulates a power failure: store buffers and the rule's pending
// flushes are lost, the volatile cache vanishes, and each cache line's
// committed history is sealed into an epoch whose persisted prefix is
// any length from the guaranteed lower bound up to the full history.
func (m *machine) Crash() {
	m.met.Crashes.Inc()
	m.dropVolatile()
	m.img.Seal()
	m.tr.Crash()
}

// PersistFingerprint hashes every cache line's sealed store history (IDs
// and values) together with its persisted-prefix bounds. Store IDs are
// deterministic per instruction-stream prefix, so across executions of
// one deterministically replayed program, equal fingerprints mean the
// surviving images are the same image, not merely similar ones.
func (m *machine) PersistFingerprint() uint64 { return m.img.Fingerprint() }

func (m *machine) Snapshot() *ImageSnapshot { return m.img.Snapshot() }

func (m *machine) Restore(snap *ImageSnapshot) {
	m.dropVolatile()
	m.img.Restore(snap)
}

// Retire's machine roots are the stores still waiting in store buffers;
// the image pins every entry that can still become a read candidate,
// the volatile cache (the newest entry per word of the live epoch)
// included. Rules hold line coverage counts, not stores.
func (m *machine) Retire(extraRoots func(pin func(*trace.Store))) {
	m.img.Retire(m.pinBuffered, extraRoots)
}

func (m *machine) pinBuffered(pin func(*trace.Store)) {
	for _, r := range m.bufs.rows {
		for _, e := range r.vals {
			if e.store != nil {
				pin(e.store)
			}
		}
	}
}
