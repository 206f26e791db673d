// Package persist is the persistency-model layer: the Model interface
// the upper layers consume, the model-neutral post-crash read
// Candidate, the crash image every backend shares (Image), the one
// simulated machine behind every built-in backend, and a registry of
// those backends.
//
// PSan's robustness algorithm (internal/core) is defined relative to a
// persistency model but consumes only the event trace and the per-read
// candidate sets — not x86 specifics. This package captures exactly that
// consumption surface, so the checker, the pmem world, the exploration
// engine, and the CLIs are generic over the model.
//
// The built-in backends run the same TSO machine (machine.go): store
// buffers, forwarding, loads, RMWs, crashes, snapshots and retirement.
// They differ only in their persistence rule (rules.go), which decides
// when a committed store becomes guaranteed persistent:
//
//   - px86: Px86sim of Raad et al. — the paper's model and the default
//     backend. A clflushopt completes at a later drain by its thread;
//     the pending (line, coverage) records are kept per thread;
//   - ptsosyn: the Khyzha–Lahav PTSOsyn synchronous variant, which keeps
//     the same pending flushes as per-line markers. Observationally
//     equivalent to px86 on this op vocabulary and used as a
//     differential twin;
//   - strict: strict persistency — every committed store is immediately
//     persistent, in order. The robustness reference model, doubling as
//     a differential oracle: a robust program must compute the same
//     final heap under strict and px86.
package persist

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Candidate describes one store a post-crash load may read, along with
// the crash-image bookkeeping needed to commit the choice. The fields
// beyond Store are resolution state owned by the issuing backend's
// Image; exploration policies treat them as opaque and must pass
// candidates back to the same model unmodified.
type Candidate struct {
	Store *trace.Store
	// Resolve marks candidates that narrow crash-image nondeterminism
	// when chosen: stores surviving from sealed epochs and the initial
	// value. Volatile reads (store-buffer forwarding and words written
	// in the current sub-execution) are uniquely determined and resolve
	// nothing.
	Resolve bool
	// Epoch is the index into the line's sealed epochs, or -1 for the
	// initial value and for volatile reads.
	Epoch int
	// LoNew and HiNew are the narrowed persisted-prefix range for that
	// epoch if this candidate is chosen.
	LoNew, HiNew int
}

// Model is a simulated machine under one persistency semantics. It is
// the exact surface the upper layers consume: store issue/commit, flush
// and fence operations, crash transitions to legal post-crash candidate
// sets, candidate-steered loads, a persistent-state fingerprint, and
// Reset for world reuse.
//
// A Model is not safe for concurrent use: simulated threads are
// interleaved by the caller, not by goroutines. Distinct Models may be
// driven from distinct goroutines concurrently (one world per
// goroutine, as the parallel exploration engine does).
type Model interface {
	// Name identifies the backend ("px86", "strict", "ptsosyn").
	Name() string
	// Trace returns the execution trace recorded so far.
	Trace() *trace.Trace
	// Intern maps a source label to the trace's dense LocID, the form
	// every instruction method takes.
	Intern(loc string) trace.LocID
	// Reset rewinds the machine (and its trace) to the
	// freshly-constructed state, recycling internal arenas. Pointers
	// previously obtained from the machine or its trace become invalid.
	Reset()

	// Store issues a store of v to word a by thread t.
	Store(t memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc trace.LocID) *trace.Store
	// Flush issues a synchronous cache-line write-back (clflush) of the
	// line containing a.
	Flush(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID)
	// FlushOpt issues an asynchronous write-back (clflushopt/clwb) whose
	// persistence is guaranteed only after a subsequent drain by t.
	FlushOpt(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID)
	// SFence issues a store fence (a drain operation).
	SFence(t memmodel.ThreadID, loc trace.LocID)
	// MFence issues a full fence (a drain operation).
	MFence(t memmodel.ThreadID, loc trace.LocID)

	// DrainOne commits the oldest pending entry of t's store buffer,
	// reporting whether there was one. Exploration harnesses use it to
	// exercise store-buffer interleavings.
	DrainOne(t memmodel.ThreadID) bool

	// LoadCandidates returns the stores a load of word a by thread t may
	// read, newest-possible first. The returned slice is a model-owned
	// scratch buffer, valid only until the next LoadCandidates call on
	// the same model; callers that keep more than one candidate set
	// alive must copy.
	LoadCandidates(t memmodel.ThreadID, a memmodel.Addr) []Candidate
	// Load performs a load of word a by thread t reading from the chosen
	// candidate, which must come from LoadCandidates for the same (t, a).
	Load(t memmodel.ThreadID, a memmodel.Addr, c Candidate, loc trace.LocID) memmodel.Value
	// CAS performs an atomic compare-and-swap on word a reading from the
	// chosen candidate, returning the value read and whether the swap
	// happened. RMW operations act as drains.
	CAS(t memmodel.ThreadID, a memmodel.Addr, c Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool)
	// FAA performs an atomic fetch-and-add on word a reading from the
	// chosen candidate, returning the previous value. Like CAS it drains.
	FAA(t memmodel.ThreadID, a memmodel.Addr, c Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value

	// Crash simulates a power failure: volatile state is lost and each
	// cache line's committed history is sealed with the legal range of
	// persisted prefixes. A new sub-execution begins.
	Crash()
	// PersistFingerprint hashes the machine's persistent state. Call it
	// immediately after Crash: two machines of the same backend with
	// equal fingerprints present identical candidate sets to every
	// future post-crash load — the contract the exploration state cache
	// depends on (see DESIGN.md, "Persistency-model backends").
	PersistFingerprint() uint64

	// Snapshot captures the machine's persistent state for a later
	// Restore. Call it only immediately after Crash, when volatile
	// machine state (store buffers, pending flushes, the DRAM cache) is
	// empty: the snapshot then reduces to the crash image's sealed-epoch
	// bounds, making it O(sealed epochs) rather than O(machine).
	Snapshot() *ImageSnapshot
	// Restore rewinds the machine to a previously captured Snapshot,
	// discarding everything executed since: volatile state is cleared
	// and the crash image's epochs and prefix bounds are rewound. The
	// caller is responsible for rewinding the shared trace to the
	// matching mark.
	Restore(*ImageSnapshot)

	// Retire runs one bounded-window retirement on the machine's trace
	// through Image.Retire: the crash image updates its sticky pins
	// (every entry that can still produce a candidate, the volatile
	// cache included), the machine pins its store buffers, extraRoots
	// pins and holds stores owned by upper layers (the checker's
	// deferred reads and constraint endpoints), and the trace sweeps the
	// rest. extraRoots may be nil. The pmem world invokes it every
	// Window operations when Config.Window > 0, and never otherwise.
	Retire(extraRoots func(pin func(*trace.Store)))
}

// Config selects and configures a persistency-model backend. It is the
// single model-config path shared by pmem.Config and explore.Options.
type Config struct {
	// Name is the registered backend name; "" selects DefaultModel.
	Name string
	// DelayedCommit keeps stores in per-thread store buffers until a
	// fence, RMW, or explicit drain commits them, exposing TSO
	// store-buffer effects. When false, stores commit immediately after
	// issue, which is a legal TSO behavior and keeps model checking
	// tractable. Strict has no store buffers and ignores it.
	DelayedCommit bool
	// Window, when positive, puts the machine's trace in bounded-window
	// (streaming) mode: every Window operations the pmem world asks the
	// model to retire history behind the frontier — stores that can no
	// longer be read by any future load (not a crash-image candidate,
	// not volatile state, not pinned by the checker or by clock-vector
	// resolution) are unlinked, and their arena slots go back on the
	// trace's free lists for reuse. 0 (the default) keeps every record
	// until Reset, byte-identical to previous releases. Window changes
	// which exploration features are available (snapshots and the
	// post-crash state cache run only without a window) and is validated
	// by checkpoints.
	Window int
	// Obs, when it carries a metrics registry, makes backends built from
	// this config emit per-model instruction counters
	// (persist.<model>.stores, .flushes, .fences, ...). Nil disables
	// instrumentation; every counter call is then a nil-check no-op, so
	// the hot path is unchanged. Obs is campaign-scoped plumbing, not
	// model semantics: it never affects execution and is ignored by
	// checkpoint validation.
	Obs *obs.Observer
}

// InvariantError is the panic value raised when a model detects an
// internal inconsistency — a crash-image prefix range that became empty
// or contradictory. These are engine bugs, never program-under-test
// bugs, and the value is typed so the exploration layer's panic
// isolation can classify the record it quarantines (explore.ExecError)
// instead of losing the whole campaign to one broken schedule.
type InvariantError struct {
	// Model is the backend that tripped the invariant ("px86", ...).
	Model string
	// Check names the violated invariant ("crash-image resolution",
	// "prefix range").
	Check string
	// Addr is the word whose line state exposed the inconsistency.
	Addr memmodel.Addr
	// Loc is the materialized (interned) source location of the access
	// being resolved when the invariant tripped; empty when unknown.
	Loc string
}

// Error implements error, so the panic value reads well in logs.
func (e InvariantError) Error() string {
	if e.Loc == "" {
		return fmt.Sprintf("%s: %s invariant violated for %s", e.Model, e.Check, e.Addr)
	}
	return fmt.Sprintf("%s: %s invariant violated for %s at %s", e.Model, e.Check, e.Addr, e.Loc)
}

// String mirrors Error for %v rendering of the bare panic value.
func (e InvariantError) String() string { return e.Error() }
