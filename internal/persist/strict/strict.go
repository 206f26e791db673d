// Package strict implements strict persistency: every store becomes
// persistent at the moment it commits, in commit order, as if the
// persistence domain extended to the cache. It is the robustness
// reference model of the paper — a program is robust exactly when its
// post-crash behaviors under the weak model are behaviors it already
// has under strict persistency — and doubles as a differential oracle:
// under strict, every post-crash load has exactly one legal candidate
// (the newest committed store), so a robust program must compute the
// same final heap here as under px86, and the checker must report no
// violations for any program.
//
// Flushes and fences are recorded in the trace (the checker still sees
// them) but have no persistence effect — there is nothing left to
// flush. Store buffers do not exist: DelayedCommit is ignored, stores
// commit at issue.
package strict

import (
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/trace"
)

func init() {
	persist.Register(persist.Info{
		Name:        "strict",
		Description: "strict persistency: stores persist immediately, in order (differential oracle)",
		Weak:        false,
	}, func(cfg persist.Config) persist.Model {
		m := New()
		m.met = obs.PersistInstruments(cfg.Obs.Reg(), "strict")
		m.tr.SetWindow(cfg.Window)
		return m
	})
}

// Machine simulates a machine with strict persistency. Like the other
// backends it is not safe for concurrent use; drive one Machine per
// goroutine.
//
// The last committed store per word in the current sub-execution is the
// tail of the trace's per-word commit list (trace.SubExec.LastTo).
type Machine struct {
	tr  *trace.Trace
	img persist.Image
	met obs.PersistMetrics // zero value (all nil) = counting disabled

	cands []persist.Candidate // LoadCandidates scratch
}

// New returns a machine with all of persistent memory zero-initialized.
func New() *Machine {
	m := &Machine{tr: trace.New()}
	m.img.Init("strict")
	return m
}

// Name implements persist.Model.
func (m *Machine) Name() string { return "strict" }

// Trace returns the execution trace recorded so far.
func (m *Machine) Trace() *trace.Trace { return m.tr }

// Intern maps a source label to the trace's dense LocID.
func (m *Machine) Intern(loc string) trace.LocID { return m.tr.Intern(loc) }

// Reset rewinds the machine and its trace to the freshly-constructed
// state; see the Model contract.
func (m *Machine) Reset() {
	m.img.Reset()
	m.tr.Reset()
}

// commit makes a store globally visible, appends it to its line's
// history, and — the strict-persistency step — marks the whole line
// history guaranteed persistent.
func (m *Machine) commit(st *trace.Store) {
	m.tr.StoreCommit(st)
	m.img.Commit(st)
	m.img.Guarantee(st.Addr)
}

// Store issues and immediately commits a store of v to word a.
func (m *Machine) Store(t memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc trace.LocID) *trace.Store {
	m.met.Stores.Inc()
	st := m.tr.StoreIssue(t, a, v, memmodel.OpStore, loc)
	m.commit(st)
	return st
}

// Flush records a clflush in the trace; persistence-wise a no-op.
func (m *Machine) Flush(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	m.met.Flushes.Inc()
	m.tr.Fence(t, memmodel.OpFlush, a.Line(), loc)
}

// FlushOpt records a clflushopt in the trace; persistence-wise a no-op.
func (m *Machine) FlushOpt(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	m.met.FlushOpts.Inc()
	m.tr.Fence(t, memmodel.OpFlushOpt, a.Line(), loc)
}

// SFence records a store fence; nothing is buffered, so nothing drains.
func (m *Machine) SFence(t memmodel.ThreadID, loc trace.LocID) {
	m.met.Fences.Inc()
	m.tr.Fence(t, memmodel.OpSFence, 0, loc)
}

// MFence records a full fence; nothing is buffered, so nothing drains.
func (m *Machine) MFence(t memmodel.ThreadID, loc trace.LocID) {
	m.met.Fences.Inc()
	m.tr.Fence(t, memmodel.OpMFence, 0, loc)
}

// DrainAll implements persist.Model; there are no store buffers.
func (m *Machine) DrainAll(t memmodel.ThreadID) {}

// DrainOne implements persist.Model; there is never anything to drain.
func (m *Machine) DrainOne(t memmodel.ThreadID) bool { return false }

// BufferLen implements persist.Model; buffers are always empty.
func (m *Machine) BufferLen(t memmodel.ThreadID) int { return 0 }

// LoadCandidates returns the single store a load of word a may read:
// the newest committed store, or — before any store to a — the store
// surviving the last crash (under strict persistency the whole history
// survives, so that is the newest pre-crash store), or the initial
// value. The returned slice is machine-owned scratch, valid until the
// next call.
func (m *Machine) LoadCandidates(t memmodel.ThreadID, a memmodel.Addr) []persist.Candidate {
	a = a.Word()
	cands := m.cands[:0]
	if st := m.tr.Current().LastTo(a); st != nil {
		m.cands = append(cands, persist.Candidate{Store: st, Epoch: -1})
		return m.cands
	}
	// Sealed epochs all have lo = hi = len: the walk yields exactly the
	// newest surviving store to a, or falls through to the initial value.
	cands, blocked := m.img.AppendSealedCandidates(cands, a)
	if !blocked {
		cands = append(cands, persist.Candidate{Store: m.tr.Initial(a), Resolve: true, Epoch: -1})
	}
	m.cands = cands
	return cands
}

// Load performs a load of word a reading from the chosen candidate.
func (m *Machine) Load(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.resolve(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpLoad, loc)
	return c.Store.Value
}

// LoadDefault performs a load reading the newest (only) legal store.
func (m *Machine) LoadDefault(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) memmodel.Value {
	cands := m.LoadCandidates(t, a)
	return m.Load(t, a, cands[0], loc)
}

// CAS performs an atomic compare-and-swap on word a.
func (m *Machine) CAS(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool) {
	a = a.Word()
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

// FAA performs an atomic fetch-and-add on word a.
func (m *Machine) FAA(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value {
	a = a.Word()
	m.resolve(a, c, loc)
	m.tr.Load(t, a, c.Store, memmodel.OpFAA, loc)
	old := c.Store.Value
	st := m.tr.StoreIssue(t, a, old+delta, memmodel.OpFAA, loc)
	m.commit(st)
	return old
}

// resolve narrows the crash image to the chosen candidate, counting
// resolutions that actually consumed nondeterminism.
func (m *Machine) resolve(a memmodel.Addr, c persist.Candidate, loc trace.LocID) {
	if c.Resolve {
		m.met.Resolved.Inc()
	}
	m.img.Resolve(a, c, m.tr, loc)
}

// Crash simulates a power failure. Under strict persistency nothing is
// lost: every line's full history is sealed with lo = hi = len, so the
// post-crash state is uniquely the newest committed values.
func (m *Machine) Crash() {
	m.met.Crashes.Inc()
	m.img.Seal()
	m.tr.Crash()
}

// PersistFingerprint hashes the persistent state; see the Model
// contract and DESIGN.md for the state-cache soundness argument.
func (m *Machine) PersistFingerprint() uint64 { return m.img.Fingerprint() }

// Snapshot captures the machine's persistent state for a later Restore;
// call only immediately after Crash (see the Model contract).
func (m *Machine) Snapshot() *persist.ImageSnapshot { return m.img.Snapshot() }

// Restore rewinds the machine to a previously captured Snapshot; the
// shared trace is rewound by the caller.
func (m *Machine) Restore(snap *persist.ImageSnapshot) {
	m.img.Restore(snap)
}

// Retire implements persist.Retirable: one bounded-window retirement.
// Strict machines have no buffers; the roots are the crash image's
// still-readable entries (under strict every epoch has lo = len, so the
// image retains exactly the newest store per word — the volatile cache,
// for the live epoch — and kills everything older).
func (m *Machine) Retire(extraRoots func(pin func(*trace.Store))) {
	m.img.Retire(m.tr, nil, extraRoots)
}

// GuaranteedPersistCount mirrors the px86 diagnostic: under strict it
// always equals the line's committed-history length.
func (m *Machine) GuaranteedPersistCount(a memmodel.Addr) int {
	return m.img.GuaranteedCount(a)
}
