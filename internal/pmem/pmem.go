// Package pmem provides the instrumented persistent-memory programming
// interface that benchmark ports and example programs are written
// against. It plays the role of Jaaru's LLVM instrumentation in the
// original system: every load, store, flush, and fence is routed through
// the configured persistency-model backend (px86 by default; see
// internal/persist) and observed by the PSan checker.
//
// A World couples one simulated machine with one checker and a read
// policy. Simulated threads are either inline (the test driver scripts
// the interleaving itself) or spawned (cooperative goroutines scheduled
// one operation at a time, so executions stay serialized and
// reproducible).
//
// Crash points follow the paper's §6.1: the exploration harness sets a
// crash target k, and the world injects a crash immediately before the
// k-th fence-like operation of the phase (or after the last operation
// when k is past the end).
package pmem

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	_ "repro/internal/persist/backends" // link all built-in models
	"repro/internal/trace"
)

// CrashSignal is the panic value used to unwind a phase when the
// simulated machine crashes. Benchmark code must let it propagate.
type CrashSignal struct{}

// AbortSignal unwinds an execution that exceeded its operation budget
// (for example, a spin lock whose holder crashed). The exploration
// harness discards such executions.
type AbortSignal struct{ Reason string }

// ReadChooser selects which store a load reads from when the crash image
// leaves more than one possibility. It is the hook where exploration
// strategies (random, model checking, violation avoidance) plug in.
// Candidates are model-neutral (persist.Candidate), so choosers work
// unchanged against every backend.
type ReadChooser func(w *World, t memmodel.ThreadID, addr memmodel.Addr, cands []persist.Candidate, loc trace.LocID) persist.Candidate

// ChooseNewest picks the newest legal store — the behavior of an
// execution in which everything persisted.
func ChooseNewest(_ *World, _ memmodel.ThreadID, _ memmodel.Addr, cands []persist.Candidate, _ trace.LocID) persist.Candidate {
	return persist.Newest(cands)
}

// ChooseOldest picks the oldest legal store — the behavior of an
// execution in which as little as possible persisted. Useful in tests
// that want the worst surviving image.
func ChooseOldest(_ *World, _ memmodel.ThreadID, _ memmodel.Addr, cands []persist.Candidate, _ trace.LocID) persist.Candidate {
	return persist.Oldest(cands)
}

// ChooseRandom picks uniformly among the legal stores using the world's
// random source.
func ChooseRandom(w *World, _ memmodel.ThreadID, _ memmodel.Addr, cands []persist.Candidate, _ trace.LocID) persist.Candidate {
	return persist.Random(w.rng, cands)
}

// ChooseAvoidingViolations wraps another chooser with PSan's multi-bug
// strategy (§5.2 Implementation): candidates whose read would create a
// robustness violation are avoided when a consistent candidate exists,
// letting one execution surface several independent bugs. When every
// candidate violates, the inner chooser picks among all of them and the
// violation is reported.
func ChooseAvoidingViolations(inner ReadChooser) ReadChooser {
	return func(w *World, t memmodel.ThreadID, addr memmodel.Addr, cands []persist.Candidate, loc trace.LocID) persist.Candidate {
		clean := w.steer[:0]
		for _, c := range cands {
			if !w.Checker.WouldViolate(t, c.Store) {
				clean = append(clean, c)
			} else {
				// Record the diagnosis even though the execution will
				// steer around it: the outcome is reachable.
				w.Checker.FlagRead(t, addr, c.Store, loc)
			}
		}
		w.steer = clean
		if len(clean) > 0 {
			return inner(w, t, addr, clean, loc)
		}
		return inner(w, t, addr, cands, loc)
	}
}

// Config parameterizes a World.
type Config struct {
	// Model selects and configures the persistency-model backend; the
	// zero value selects px86 with immediate commit.
	Model persist.Config
	// Seed seeds the world's random source (scheduling and ChooseRandom).
	Seed int64
	// Chooser is the read policy; nil means ChooseNewest.
	Chooser ReadChooser
	// CrashTarget injects a crash before the CrashTarget-th fence-like
	// operation of the current phase; negative disables injection.
	CrashTarget int
	// OpLimit bounds the operations per execution; 0 means 1 << 20.
	OpLimit int
	// RandomDrainPercent, with the machine in delayed-commit mode,
	// drains one random store-buffer entry before an operation with the
	// given percent probability (0–100), exposing TSO store-buffer
	// interleavings to exploration.
	RandomDrainPercent int
	// Provenance makes the checker capture a structured obs.Provenance
	// record (the racing store, its flush/fence context, the crash, the
	// post-crash read) for every violation it flags. Costs a few
	// allocations per distinct violation; leave off for benchmarks.
	Provenance bool
}

// World is one simulated persistent-memory system under test. A World
// is fully self-contained — machine, trace, checker, heap, scheduler,
// and random source — so concurrent executions on distinct Worlds never
// share mutable state; within one World, operations must stay on a
// single goroutine.
type World struct {
	M       persist.Model
	Checker *core.Checker
	Heap    *Heap

	chooser     ReadChooser
	rng         *rand.Rand
	crashTarget int
	fenceOps    int
	ops         int
	isteps      int
	opLimit     int
	drainPct    int
	threadIDs   []memmodel.ThreadID
	crashed     bool

	// Bounded-window retirement (persist.Config.Window > 0): every
	// retireEvery scheduled operations the world asks the model to
	// retire trace history behind the frontier. retire is the model's
	// Retirable face and retireExtra the checker's root hook, both
	// resolved once at construction so the trigger path allocates
	// nothing. retireEvery starts at the window and stretches with the
	// live set (a quarter of the last sweep's walked entries) so a
	// workload whose persistent footprint grows — every pinned store is
	// re-walked each sweep — pays amortized O(1) retirement work per
	// operation instead of a quadratic rescan. Both the operation count
	// and the sweep-work measure are deterministic, so retirement
	// happens at identical trace points across replays of one schedule.
	window      int
	retireEvery int
	sinceRetire int
	retire      persist.Retirable
	retireExtra func(mark func(*trace.Store))

	spawned []*simThread

	// steer is ChooseAvoidingViolations' scratch for the clean-candidate
	// subset, reused across loads.
	steer []persist.Candidate

	// probe, when non-nil, runs before every operation with the world's
	// running operation count. The exploration layer installs probes for
	// per-execution watchdogs (step timeouts raise AbortSignal) and chaos
	// fault injection (deliberate panics); nil costs one branch per op.
	probe func(ops int)

	// assertFailures records failed program assertions ("assert(e)" in
	// the Figure 9 language, or Assert calls from benchmark ports). The
	// Jaaru-style baseline detects bugs only through these.
	assertFailures []string

	// sweepNanos accumulates this execution's retirement-sweep wall
	// time (bounded-window mode only); a timing diagnostic, never part
	// of any determinism contract.
	sweepNanos int64

	// wobs holds the world-level observability counters (schedule steps,
	// interpreter steps). The zero value (all-nil instruments) makes every
	// increment a nil-check no-op; it survives Reset like the rest of the
	// configuration.
	wobs obs.WorldMetrics
}

// RecordAssertFailure notes a failed program assertion.
func (w *World) RecordAssertFailure(loc string) {
	w.assertFailures = append(w.assertFailures, loc)
}

// AssertFailures returns the assertion failures recorded this execution.
func (w *World) AssertFailures() []string { return w.assertFailures }

// NewWorld builds a fresh world: zeroed persistent memory, an empty
// trace, and an unconstrained checker.
func NewWorld(cfg Config) *World {
	m := persist.MustNew(cfg.Model)
	chooser := cfg.Chooser
	if chooser == nil {
		chooser = ChooseNewest
	}
	limit := cfg.OpLimit
	if limit == 0 {
		limit = 1 << 20
	}
	w := &World{
		M:           m,
		Checker:     core.New(m.Trace()),
		Heap:        NewHeap(),
		chooser:     chooser,
		rng:         rand.New(newLazySource(cfg.Seed)),
		crashTarget: cfg.CrashTarget,
		opLimit:     limit,
		drainPct:    cfg.RandomDrainPercent,
		wobs:        obs.WorldInstruments(cfg.Model.Obs.Reg()),
	}
	w.Checker.SetProvenance(cfg.Provenance)
	if cfg.Model.Window > 0 {
		if r, ok := m.(persist.Retirable); ok {
			w.window = cfg.Model.Window
			w.retireEvery = w.window
			w.retire = r
			w.retireExtra = w.Checker.MarkRetireRoots
		}
	}
	return w
}

// Reset returns the world to its initial state — zeroed memory, empty
// trace, unconstrained checker, fresh heap — reseeding the random source
// so the world replays exactly as a new one built with the same seed.
// The configured chooser, op limit, and drain percentage persist.
// Allocations made by previous executions (trace arenas, intern table,
// epoch pools, scratch buffers) are retained for reuse.
func (w *World) Reset(seed int64) {
	w.M.Reset()
	w.Checker.Reset()
	w.Heap.Reset()
	w.rng.Seed(seed)
	w.crashTarget = -1
	w.fenceOps = 0
	w.ops = 0
	w.isteps = 0
	w.crashed = false
	w.sinceRetire = 0
	w.retireEvery = w.window
	w.sweepNanos = 0
	w.threadIDs = w.threadIDs[:0]
	w.spawned = nil
	w.assertFailures = nil
	w.probe = nil
}

// SetProbe installs (or, with nil, removes) the per-operation probe for
// the next execution. Reset clears it: harnesses that want one must
// re-install it each execution.
func (w *World) SetProbe(p func(ops int)) { w.probe = p }

// Rand returns the world's random source (shared by schedulers and
// random read policies so one seed reproduces the whole execution).
func (w *World) Rand() *rand.Rand { return w.rng }

// FenceOps returns the number of fence-like operations executed in the
// current phase; the harness uses a pilot run to size the crash-point
// range (§6.1 model checking mode).
func (w *World) FenceOps() int { return w.fenceOps }

// Ops returns the number of operations the current execution has
// performed so far — the op-budget position. The explorer folds it into
// its partial-order-reduction key so two crash states are only merged
// when their continuations also abort at the same point.
func (w *World) Ops() int { return w.ops }

// SetCrashTarget re-arms crash injection for the next phase.
func (w *World) SetCrashTarget(k int) {
	w.crashTarget = k
	w.fenceOps = 0
}

// Crashed reports whether the current phase hit its crash target.
func (w *World) Crashed() bool { return w.crashed }

// RunPhase executes one phase function, converting an injected crash
// into a normal return. It returns true if the phase crashed. The
// machine-level crash itself (persist.Model.Crash) is the caller's
// responsibility, so a harness can decide to crash even after a phase
// that ran to completion.
func (w *World) RunPhase(phase func(*World)) (crashed bool) {
	w.crashed = false
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashSignal); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	phase(w)
	return false
}

// Crash crashes the machine and starts the next sub-execution.
func (w *World) Crash() {
	w.M.Crash()
	w.crashed = false
	w.fenceOps = 0
}

// Thread returns an inline simulated thread: its operations execute
// immediately in the caller's control flow, letting drivers script exact
// interleavings.
func (w *World) Thread(id memmodel.ThreadID) *Thread {
	w.registerThread(id)
	return &Thread{ID: id, w: w}
}

// step enforces the operation budget and the crash target, and in
// delayed-commit mode randomly drains store buffers. It runs before
// every operation of every thread.
func (w *World) step(kind memmodel.OpKind) {
	if w.crashed {
		panic(CrashSignal{})
	}
	w.wobs.ScheduleSteps.Inc()
	w.ops++
	if w.ops > w.opLimit {
		panic(AbortSignal{Reason: fmt.Sprintf("operation budget %d exceeded", w.opLimit)})
	}
	if w.probe != nil {
		w.probe(w.ops)
	}
	if w.drainPct > 0 && len(w.threadIDs) > 0 && w.rng.Intn(100) < w.drainPct {
		w.M.DrainOne(w.threadIDs[w.rng.Intn(len(w.threadIDs))])
	}
	if kind.IsFenceLike() {
		if w.crashTarget >= 0 && w.fenceOps == w.crashTarget {
			w.crashed = true
			panic(CrashSignal{})
		}
		w.fenceOps++
	}
	if w.window > 0 {
		if w.sinceRetire++; w.sinceRetire >= w.retireEvery {
			w.sinceRetire = 0
			w.retireNow()
		}
	}
}

// retireNow runs one bounded-window retirement and folds the sweep's
// deltas into the world's instruments.
func (w *World) retireNow() {
	tr := w.M.Trace()
	before := tr.Retired()
	// Two clock reads per sweep are noise next to the O(live set) walk
	// they bracket, so the sweep is timed unconditionally: the total
	// rides into Result diagnostics even without an obs registry.
	sweepStart := time.Now()
	w.retire.Retire(w.retireExtra)
	sweepNS := time.Since(sweepStart).Nanoseconds()
	w.sweepNanos += sweepNS
	w.wobs.SweepNanos.Observe(sweepNS)
	after := tr.Retired()
	w.wobs.Retirements.Inc()
	w.wobs.RetiredStores.Add(int64(after.RetiredStores - before.RetiredStores))
	w.wobs.RetiredEvents.Add(int64(after.RetiredEvents - before.RetiredEvents))
	w.wobs.WindowRetained.Set(int64(after.RetainedEvents))
	w.wobs.PinnedRoots.Set(int64(after.PinnedRoots))
	// Amortize: each sweep walks the whole live set, so the next sweep
	// is deferred until the work it would redo has been "paid for" by
	// fresh operations. LastSweepWork is deterministic, so the stretched
	// cadence replays identically.
	w.retireEvery = w.window
	if q := tr.LastSweepWork() / 4; q > w.retireEvery {
		w.retireEvery = q
	}
}

// Window returns the configured retirement window (0: unbounded).
func (w *World) Window() int { return w.window }

// SweepNanos returns this execution's accumulated retirement-sweep
// wall time (0 in unbounded mode).
func (w *World) SweepNanos() int64 { return w.sweepNanos }

// interpProbeMask throttles the interpreter-step watchdog probe: with a
// probe installed it also runs once every 1024 interpreted statements,
// so an execution hung in a loop that issues no memory operations (pure
// register spinning in the interpreted program) still reaches the
// exploration layer's per-execution watchdog. Without a probe the extra
// cost is one nil check per statement.
const interpProbeMask = 1<<10 - 1

// CountInterpStep counts one interpreted statement toward the interp
// instrument; the interpreter calls it once per statement executed.
// It doubles as a watchdog poll site (see interpProbeMask): the
// per-operation probe alone has a blind spot for statement loops that
// never issue an operation.
func (w *World) CountInterpStep() {
	w.wobs.InterpSteps.Inc()
	if w.probe != nil {
		w.isteps++
		if w.isteps&interpProbeMask == 0 {
			w.probe(w.ops)
		}
	}
}

// registerThread tracks thread IDs for the random drain scheduler.
func (w *World) registerThread(id memmodel.ThreadID) {
	for _, t := range w.threadIDs {
		if t == id {
			return
		}
	}
	w.threadIDs = append(w.threadIDs, id)
}

// Thread is a handle for issuing operations as one simulated thread.
type Thread struct {
	ID memmodel.ThreadID
	w  *World
	// yield, set on spawned threads, runs the cooperative scheduler at
	// each operation boundary; inline threads leave it nil.
	yield func()
}

// World returns the world the thread belongs to.
func (t *Thread) World() *World { return t.w }

func (t *Thread) step(kind memmodel.OpKind) {
	if t.yield != nil {
		t.yield()
	}
	t.w.step(kind)
}

// Store writes v to word a.
func (t *Thread) Store(a memmodel.Addr, v memmodel.Value, loc string) {
	t.step(memmodel.OpStore)
	t.w.M.Store(t.ID, a, v, t.w.M.Intern(loc))
}

// Load reads word a, resolving post-crash nondeterminism through the
// world's read policy and reporting the read to the checker.
func (t *Thread) Load(a memmodel.Addr, loc string) memmodel.Value {
	t.step(memmodel.OpLoad)
	w := t.w
	lid := w.M.Intern(loc)
	cands := w.M.LoadCandidates(t.ID, a)
	chosen := cands[0]
	if len(cands) > 1 {
		chosen = w.chooser(w, t.ID, a, cands, lid)
	}
	v := w.M.Load(t.ID, a, chosen, lid)
	w.Checker.ObserveRead(t.ID, a, chosen.Store, lid)
	return v
}

// Flush issues clflush on the line containing a.
func (t *Thread) Flush(a memmodel.Addr, loc string) {
	t.step(memmodel.OpFlush)
	t.w.M.Flush(t.ID, a, t.w.M.Intern(loc))
}

// FlushOpt issues clflushopt/clwb on the line containing a.
func (t *Thread) FlushOpt(a memmodel.Addr, loc string) {
	t.step(memmodel.OpFlushOpt)
	t.w.M.FlushOpt(t.ID, a, t.w.M.Intern(loc))
}

// SFence issues a store fence (a drain operation).
func (t *Thread) SFence(loc string) {
	t.step(memmodel.OpSFence)
	t.w.M.SFence(t.ID, t.w.M.Intern(loc))
}

// MFence issues a full fence (a drain operation).
func (t *Thread) MFence(loc string) {
	t.step(memmodel.OpMFence)
	t.w.M.MFence(t.ID, t.w.M.Intern(loc))
}

// Persist is the idiomatic "make it durable" sequence: clflushopt
// followed by sfence, covering every cache line of [a, a+size).
func (t *Thread) Persist(a memmodel.Addr, size int, loc string) {
	for line := a.Line(); line < a+memmodel.Addr(size); line += memmodel.CacheLineSize {
		t.FlushOpt(line, loc)
	}
	t.SFence(loc)
}

// CAS atomically compares word a with expected and, on a match, writes
// newV. It returns the observed value and whether the swap happened.
func (t *Thread) CAS(a memmodel.Addr, expected, newV memmodel.Value, loc string) (memmodel.Value, bool) {
	t.step(memmodel.OpCAS)
	w := t.w
	lid := w.M.Intern(loc)
	cands := w.M.LoadCandidates(t.ID, a)
	chosen := cands[0]
	if len(cands) > 1 {
		chosen = w.chooser(w, t.ID, a, cands, lid)
	}
	old, ok := w.M.CAS(t.ID, a, chosen, expected, newV, lid)
	w.Checker.ObserveRead(t.ID, a, chosen.Store, lid)
	return old, ok
}

// FAA atomically adds delta to word a, returning the previous value.
func (t *Thread) FAA(a memmodel.Addr, delta memmodel.Value, loc string) memmodel.Value {
	t.step(memmodel.OpFAA)
	w := t.w
	lid := w.M.Intern(loc)
	cands := w.M.LoadCandidates(t.ID, a)
	chosen := cands[0]
	if len(cands) > 1 {
		chosen = w.chooser(w, t.ID, a, cands, lid)
	}
	old := w.M.FAA(t.ID, a, chosen, delta, lid)
	w.Checker.ObserveRead(t.ID, a, chosen.Store, lid)
	return old
}

// BeginChecksum marks the start of a checksum-validated read region for
// this thread (§6.4): cross-crash reads are deferred until EndChecksum.
func (t *Thread) BeginChecksum() { t.w.Checker.BeginChecksumRegion(t.ID) }

// EndChecksum finishes the region; valid reports whether the checksum
// matched. Invalid regions discard their reads (the program discards the
// data), so they constrain nothing.
func (t *Thread) EndChecksum(valid bool) { t.w.Checker.EndChecksumRegion(t.ID, valid) }
