// Package explore is the execution-exploration harness that plays the
// role of the Jaaru model checker in the original system (§4, §6.1).
//
// It supports the paper's two strategies:
//
//   - Random mode: explores random executions with random crash points,
//     random thread interleavings, and random post-crash reads, steering
//     loads away from already-diagnosed violations so one execution can
//     expose several bugs.
//   - Model-checking mode: systematically inserts crashes before each
//     fence-like operation and after the last operation of every
//     non-final phase, and exhaustively explores every store each
//     post-crash load can read, via depth-first search over the
//     execution's decision points.
//
// Programs under test are sequences of phases separated by crashes; the
// final phase is the recovery/reader code and runs to completion.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// Program is a persistent-memory test program: one or more crash-
// delimited phases. The explorer injects a crash inside (or at the end
// of) every phase except the last, then runs the next phase on the
// surviving persistent image. Phase functions must be deterministic
// given the world (all nondeterminism flows through the world's random
// source and read policy).
//
// Every phase is reentrant. The explorer calls Phases once per worker
// and runs the returned closures for every execution on that worker,
// including re-entering a later phase on a restored crash snapshot
// without re-running the earlier ones. So cross-phase state must live
// in the World, or be identical in every execution; state private to a
// worker comes from returning fresh closures on each call.
type Program interface {
	// Name identifies the program in reports.
	Name() string
	// Phases returns the phase functions, pre-crash first.
	Phases() []func(*pmem.World)
}

// FuncProgram adapts plain functions to the Program interface.
type FuncProgram struct {
	ProgName string
	PhaseFns []func(*pmem.World)
}

// Name implements Program.
func (p *FuncProgram) Name() string { return p.ProgName }

// Phases implements Program.
func (p *FuncProgram) Phases() []func(*pmem.World) { return p.PhaseFns }

// ReentrantPhases was an optional Program capability that opted a
// program into crash snapshots.
//
// Deprecated: ignored. Every Program is reentrant (see Program).
type ReentrantPhases interface {
	PhasesReentrant() bool
}

// Mode selects the exploration strategy.
type Mode int

const (
	// Random explores randomized executions (§6.1 random search mode).
	Random Mode = iota
	// ModelCheck exhaustively enumerates crash points and post-crash
	// reads (§6.1 model checking mode).
	ModelCheck
)

// String names the mode.
func (m Mode) String() string {
	if m == ModelCheck {
		return "model-check"
	}
	return "random"
}

// Options configures an exploration run.
type Options struct {
	Mode Mode
	// Executions bounds the number of executions: the exact count in
	// Random mode, a safety cap in ModelCheck mode. 0 means 1000.
	Executions int
	// Seed seeds Random mode; ModelCheck is deterministic.
	Seed int64
	// Workers is the number of parallel exploration workers, resolved
	// by Width: 0 uses runtime.NumCPU(), 1 runs every execution on the
	// calling goroutine in canonical order. Any worker count produces
	// bit-identical results: in Random mode each execution's seed is
	// derived from its index alone (never a shared RNG), and in both
	// modes work units are folded in canonical order, so scheduling
	// cannot leak into Violations, ExecutionsToAllBugs, or Aborted.
	Workers int
	// Model selects and configures the persistency-model backend
	// (persist.Config zero value: px86, immediate commit). It is the
	// single model-config path — pmem.Config receives exactly this
	// value, so the two layers cannot disagree.
	Model persist.Config
	// OpLimit bounds operations per execution (0: pmem default).
	OpLimit int
	// DisableChecker turns PSan off, leaving only the simulator — the
	// Jaaru baseline of Table 3.
	DisableChecker bool
	// NoSteering uses the plain random read policy instead of
	// violation-avoidance steering. Timing comparisons set it on both
	// sides so the measured difference is exactly the checker's
	// constraint updates, matching the paper's Table 3 methodology.
	NoSteering bool
	// StoreBuffers runs the machine in delayed-commit mode with random
	// store-buffer drains (random mode only), exposing TSO buffering —
	// stores that were issued but never reached the cache before the
	// crash.
	StoreBuffers bool
	// Progress, when non-nil, receives one call per completed execution
	// with its 1-based execution index. Even with Workers > 1 the calls
	// are serialized through the ordered fold: they never run
	// concurrently and the indices are strictly increasing (1, 2, …),
	// regardless of the order worker goroutines finish in.
	Progress func(exec int)
	// AfterExecution, when non-nil, receives each execution's world
	// after its phases complete, letting post-hoc analyses (the baseline
	// checkers of §6.4) inspect the trace. It runs at the execution site,
	// so setting it resolves Workers to 1: every execution then runs on
	// the calling goroutine in canonical index order (a panic in the hook
	// reaches Run's caller), and the hook sees exactly Executions −
	// Quarantined worlds (quarantined and pruned executions hand over
	// none). The world is only lent for the duration of the call — the
	// engine resets and reuses it afterwards — so the hook must not
	// retain or mutate it. The world's Checker.Violations() omits keys
	// the campaign had already collected (every earlier execution's, at
	// one worker), or an earlier execution of the same work unit already
	// reported, when the execution ran: those are recognized and skipped
	// undiagnosed (core.Checker.SetKnown), so an empty list means "no new
	// bug", not "no violation".
	AfterExecution func(*pmem.World)

	// --- failure containment ---

	// Context, when non-nil, cancels the run early: once it is done, no
	// new executions start, in-flight workers drain, and Run returns a
	// partial Result (Partial, StopReason, Checkpoint). Executions
	// already running are never interrupted mid-flight — the collected
	// stream stays a prefix of the uninterrupted run's.
	Context context.Context
	// Deadline bounds the run's wall-clock time (0: none) with the same
	// graceful-degradation semantics as Context cancellation.
	Deadline time.Duration
	// StepTimeout bounds one execution's wall-clock time (0: none). An
	// execution that exceeds it is aborted via the world's per-operation
	// watchdog and counted in Result.Aborted, exactly like an op-budget
	// abort. It keeps a single stuck schedule (a spin loop whose lock
	// holder crashed, a pathological interleaving) from starving the
	// campaign; because it is timing-dependent, a tripped timeout can
	// make results differ from an untimed run — leave it 0 when
	// bit-reproducibility matters more than liveness.
	StepTimeout time.Duration
	// InjectFault is the chaos-testing hook: when non-nil it is asked,
	// per execution, for a fault plan the engine then deliberately
	// triggers from inside the execution (panics through the pmem/persist
	// stack, slow steps). The argument is a deterministic schedule
	// ordinal — the execution index in Random mode, the subtree-unit-
	// local execution ordinal in ModelCheck mode — so injection is
	// independent of worker count. Production runs leave it nil.
	InjectFault func(ordinal int) Fault
	// --- observability ---

	// Obs carries the campaign's observability sinks (metrics registry
	// and span tracer, internal/obs). nil — or an Observer whose sinks
	// are nil — disables all instrumentation: every instrument resolves
	// to a nil-receiver no-op and the hot path is allocation-identical
	// to a run without observability. Run propagates the observer to the
	// persistency backend via Model.Obs unless the caller set one.
	Obs *obs.Observer
	// Provenance makes the checker capture a structured obs.Provenance
	// sub-trace for every distinct violation (the racing store, its
	// flush/fence context, the crash point, the post-crash read). It
	// costs a few allocations per distinct violation and nothing on the
	// per-operation path; leave it off for benchmarks.
	Provenance bool

	// em, tr, and fr are the instrument bundle, tracer, and flight
	// recorder resolved once in Run from Obs; all-nil (no-op) when
	// observability is off.
	em obs.ExploreMetrics
	tr *obs.Tracer
	fr *obs.FlightRecorder
	// freshWorlds builds a new World for every execution instead of
	// resetting and reusing a per-worker one (and turns crash snapshots
	// off). Results are bit-identical either way: it is the reference
	// path the world-reuse tests compare against, set through the
	// package's test seam.
	freshWorlds bool
	// noSnapshots and noStateCache switch one model-check reduction
	// off, giving the equivalence tests their unreduced reference; only
	// the package's test seam sets them.
	noSnapshots, noStateCache bool
	// known is Run's collected-key predicate (the assembler's), which
	// every world's checker consults after its unit's own reported keys
	// (workerState.isKnown); nil in RunUnit, whose stream is folded
	// elsewhere.
	known func(key string) bool

	// Resume continues a previously checkpointed partial run: the
	// engines skip (without re-executing) everything the checkpoint
	// already collected and continue the canonical stream from the cut.
	// Callers should Validate the checkpoint first. The resumed Result's
	// counts (Executions, Aborted, Quarantined, cache stats) are
	// cumulative; its Violations contain only bugs first found after the
	// cut — merge key sets with the partial run's for the campaign total.
	Resume *Checkpoint
}

// The model-check reductions — crash-boundary snapshots and the
// post-crash state cache — run iff the trace window is unbounded. A
// bounded window releases the history their keys hash and their
// restores replay: Trace.Mark is unavailable once stores retire, and
// the persistent image the cache key covers loses its retired entries.
// No reduction changes a verdict (the snapshot, state-cache and
// windowed-equivalence suites prove it), so neither is a user setting;
// the test seam switches each off for those suites. The engine reads
// only these predicates.

// useSnapshots reports whether a unit restores a world snapshot taken
// at its deepest still-valid crash boundary instead of replaying every
// execution from the program start.
func (o *Options) useSnapshots() bool {
	return o.Model.Window == 0 && !o.noSnapshots && !o.freshWorlds
}

// useStateCache reports whether crash points whose surviving persistent
// image matches one already explored are pruned (statecache.go).
func (o *Options) useStateCache() bool { return o.Model.Window == 0 && !o.noStateCache }

// Fault is one execution's chaos-injection plan (Options.InjectFault).
// The zero Fault injects nothing.
type Fault struct {
	// PanicAtOp, when positive, panics (with an internal injectedFault
	// value, classified as "injected-fault") when the execution reaches
	// that operation count — exercising the panic-isolation path from
	// inside the engine.
	PanicAtOp int
	// DelayAtOp, when positive, sleeps Delay once when the execution
	// reaches that operation count — exercising StepTimeout.
	DelayAtOp int
	Delay     time.Duration
}

// Result summarizes an exploration run.
type Result struct {
	Program    string
	Mode       Mode
	Executions int
	// ExecutionsToAllBugs is the 1-based index of the execution that
	// found the last new violation (0 when none were found) — the
	// "# total executions" column of Table 3.
	ExecutionsToAllBugs int
	Aborted             int
	Elapsed             time.Duration
	// Workers is the resolved worker count the run used.
	Workers int
	// WorkerTime is the summed per-execution wall-clock time across all
	// workers. PerExecution divides by it when set, so per-execution
	// cost (the Table 3 methodology) stays meaningful under
	// parallelism: each execution is still timed on its own worker.
	WorkerTime time.Duration
	// CacheHits and CacheMisses count post-crash state-cache lookups in
	// ModelCheck mode: a hit is a crash point whose surviving
	// persistent image was already explored, pruning its entire
	// post-crash enumeration. Only subtrees that start inside the
	// collected prefix count, so both are identical at any worker count.
	CacheHits, CacheMisses int
	// SnapshotRestores counts executions the ModelCheck engine resumed
	// from a crash-boundary world snapshot instead of replaying from the
	// program start. It is a throughput diagnostic: results are
	// bit-identical with snapshots disabled.
	SnapshotRestores int
	// Steals counted work units the model-check engine moved between
	// workers.
	//
	// Deprecated: always 0. Model checking runs one unit per subtree,
	// and a unit never moves once claimed.
	Steals int
	// Window is the bounded-window size the run used
	// (persist.Config.Window); 0 = classic unbounded traces.
	Window int
	// Ops sums the scheduled memory operations across collected
	// executions — the denominator long-workload throughput reporting
	// wants (executions alone make a 1M-op run look like one unit of
	// work).
	Ops int64
	// Retirements, RetiredStores, and RetiredEvents sum the
	// bounded-window sweeps' work across collected executions; all zero
	// when Window == 0. Like SnapshotRestores they are diagnostics,
	// excluded from the determinism contract (violations, executions,
	// and final heaps are identical at any window).
	Retirements   int64
	RetiredStores int64
	RetiredEvents int64
	// PinnedRootsMax is the largest pin closure (stores kept live) any
	// collected execution's retirement sweep marked — deterministic,
	// since the closure depends only on the execution's trace.
	// SweepNanos sums the sweeps' wall time across collected executions
	// and is a timing diagnostic. Both zero when Window == 0.
	PinnedRootsMax int64
	SweepNanos     int64
	// Violations are deduplicated across executions by bug identity
	// (store-site pair + diagnosis kind), in first-found order.
	Violations []*core.Violation

	// Partial marks a run that stopped before exhausting its work: a
	// deadline or cancellation tripped, or (ModelCheck mode) the
	// Executions budget bound before the frontier was exhausted. A
	// partial result is still sound — every reported violation is real —
	// it just proves nothing about the unexplored remainder.
	Partial bool
	// StopReason says why a stop tripped: "deadline", "canceled", or
	// "exec-budget". It is recorded first-writer-wins (noteStop) and can
	// be set on a *complete* run too: when a cancellation lands in the
	// same tick the frontier drains, Partial stays false but the reason
	// is still reported, so a SIGINT is never silently swallowed.
	StopReason string
	// FrontierRemaining counts known-unexplored work at the stop:
	// executions not run in Random mode; in ModelCheck mode, subtree
	// units with uncollected work — in-flight units the stop interrupted,
	// spawned units no worker claimed, and units whose finished work fell
	// canonically after the cut (a resume re-derives it). After an
	// "exec-budget" truncation it is 1 in ModelCheck mode: only the unit
	// the Executions cap cut counts, because which units exist past the
	// cap depends on scheduling.
	FrontierRemaining int
	// Quarantined counts executions whose engine panic was contained
	// (see ExecErrors); they contribute no violations.
	Quarantined int
	// ExecErrors are the structured records of contained panics, in
	// collection order, capped at execErrorCap entries (Quarantined
	// keeps the true count).
	ExecErrors []*ExecError
	// Checkpoint carries the resume state of a partial run stopped by a
	// deadline or cancellation; nil for complete runs and for budget
	// truncation (re-run with a larger budget instead).
	Checkpoint *Checkpoint

	// --- process isolation (internal/dispatch) ---
	// These fields are zero for in-process runs; the dispatch supervisor
	// fills them when the campaign ran in worker processes.

	// Isolated marks a Result assembled by the dispatch supervisor from
	// worker-process unit results.
	Isolated bool
	// Redeliveries counts work units re-dispatched after a worker died
	// or its lease expired; WorkerRestarts counts worker processes
	// respawned after such a failure.
	Redeliveries   int
	WorkerRestarts int
	// PoisonUnits are work units quarantined after exhausting their
	// retry budget: the campaign's canonical stream is cut at the first
	// of them (Partial, StopReason "poison") and the records carry the
	// provenance a bug report needs — the same discipline as ExecErrors.
	PoisonUnits []*PoisonUnit
	// Degraded marks a supervised campaign that fell back to in-process
	// execution after repeated supervisor-level trouble (fork/exec
	// failing). Results are still bit-identical — the same unit code runs
	// either way — but the isolation guarantee was lost.
	Degraded bool
}

// PerExecution returns the mean wall-clock time per execution, measured
// on the worker that ran it.
func (r *Result) PerExecution() time.Duration {
	if r.Executions == 0 {
		return 0
	}
	if r.WorkerTime > 0 {
		return r.WorkerTime / time.Duration(r.Executions)
	}
	return r.Elapsed / time.Duration(r.Executions)
}

// ViolationKeys returns the sorted bug identities, for stable assertions.
func (r *Result) ViolationKeys() []string {
	return core.KeySet(r.Violations)
}

// String renders a short human-readable summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s [%s]: %d executions (%d aborted), %d violations, %s total",
		r.Program, r.Mode, r.Executions, r.Aborted, len(r.Violations), r.Elapsed)
	if r.Quarantined > 0 {
		s += fmt.Sprintf(", %d quarantined", r.Quarantined)
	}
	if r.Partial {
		s += fmt.Sprintf(" [PARTIAL: %s]", r.StopReason)
	}
	return s
}

// stopper is the run-wide graceful-degradation switch. It has no
// goroutines: stopped() consults the context and the deadline directly,
// so a stop is observed deterministically at every check site (workers
// check between executions, sub-DFS loops between iterations).
//
// The first observed cause is latched (atomically — workers race to
// observe it), so why() reports the reason that actually stopped the
// run even if a second cause arrives later: a campaign whose wall-clock
// deadline trips and is then SIGINT-ed while draining reports
// "deadline", not "canceled", and vice versa.
type stopper struct {
	ctx      context.Context
	deadline time.Time // zero: none
	// reason is the latched stop cause: stopNone until the first
	// stopped() call that observes one.
	reason atomic.Int32
	em     obs.ExploreMetrics
	fr     *obs.FlightRecorder
}

const (
	stopNone int32 = iota
	stopDeadline
	stopCanceled
)

func newStopper(opt *Options) *stopper {
	s := &stopper{ctx: opt.Context, em: opt.em, fr: opt.fr}
	if s.ctx == nil {
		s.ctx = context.Background()
	}
	if opt.Deadline > 0 {
		s.deadline = time.Now().Add(opt.Deadline)
	}
	return s
}

// stopped reports whether the run should stop claiming new work,
// latching the cause on the first trip.
func (s *stopper) stopped() bool {
	if s.reason.Load() != stopNone {
		return true
	}
	if err := s.ctx.Err(); err != nil {
		if err == context.DeadlineExceeded {
			s.latch(stopDeadline)
		} else {
			s.latch(stopCanceled)
		}
		return true
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		s.latch(stopDeadline)
		return true
	}
	return false
}

// latch records the first observed stop cause; losers of the CAS keep
// the winner's reason. The stop counter increments exactly once.
func (s *stopper) latch(code int32) {
	if s.reason.CompareAndSwap(stopNone, code) {
		switch code {
		case stopDeadline:
			s.em.StopDeadline.Inc()
			s.fr.Record("explore", "stop", -1, "deadline")
		case stopCanceled:
			s.em.StopCanceled.Inc()
			s.fr.Record("explore", "stop", -1, "canceled")
		}
	}
}

// why names the stop reason latched by a stopped() call that reported
// true, for Result.StopReason.
func (s *stopper) why() string {
	if s.reason.Load() == stopCanceled {
		return "canceled"
	}
	return "deadline"
}

// Run explores the program under the given options.
func Run(p Program, opt Options) *Result {
	if opt.Executions == 0 {
		opt.Executions = 1000
	}
	opt.Workers = opt.Width()
	// Resolve the instrument bundle and tracer once; with observability
	// off both are no-op zeros. The observer rides into the backend via
	// the model config so persist counters share the campaign registry.
	opt.em = obs.ExploreInstruments(opt.Obs.Reg())
	opt.tr = opt.Obs.Trace()
	opt.fr = opt.Obs.Recorder()
	if opt.Model.Obs == nil {
		opt.Model.Obs = opt.Obs
	}
	return runUnits(p, &opt, newStopper(&opt))
}

// Width is the worker count a campaign under these options runs at —
// goroutines in Run, worker processes under the dispatch supervisor:
// Workers, or runtime.NumCPU() when it is 0 or less, and 1 whenever
// AfterExecution is set (the hook runs at the execution site, so
// executions run one at a time in canonical order, on the calling
// goroutine).
func (o *Options) Width() int {
	switch {
	case o.AfterExecution != nil:
		return 1
	case o.Workers <= 0:
		return runtime.NumCPU()
	}
	return o.Workers
}

// noteStop records a stop reason first-writer-wins: the cause that
// actually stopped the run is never overwritten by a later, different
// one, and a reason observed at the moment the frontier drained is kept
// even though the run counts as complete.
func (r *Result) noteStop(reason string) {
	if r.StopReason == "" {
		r.StopReason = reason
	}
}

// runPhasesMC is the phase driver of both modes: it executes
// phases[startPhase:] in w, consuming each non-final phase's crash-
// target decision from ctl immediately before that phase runs. Random
// mode primes ctl with its sampled targets as closed decisions; model
// checking extends the trail as it goes. Lazy consumption keeps the
// decision trail in decision-*use* order — a decision at trail index i
// influences the execution only from the point it is consumed — which
// is the invariant snapshot validity is defined over (pool.go) and
// means phases never reached leave no trail entries at all.
//
// Domain discovery is inlined: an open target decision whose injection
// did not fire is closed at target+1 as soon as its phase completes
// ("crash after the last operation", §6.1). On an op-budget abort or a
// contained panic the in-flight phase's open target decision is closed
// the same way, so sibling targets — which would deterministically
// replay the same abort or panic before crashing — are never
// enumerated separately.
//
// onCrash, when non-nil, is invoked after each crash (sealed image in
// place) with the phase index and whether the injection fired;
// returning false abandons the remaining phases (pruned). Any panic
// other than pmem.AbortSignal is contained into execErr, leaving w in
// an undefined state — the caller must discard the world and
// quarantine the schedule (see execerror.go).
//
// tr/tid attach a crash-resolution span per crash to the worker's trace
// timeline; a nil tracer costs two nil checks and reads no clock.
func runPhasesMC(phases []func(*pmem.World), w *pmem.World, ctl *controller, startPhase int, onCrash func(phase int, fired bool) bool, tr *obs.Tracer, tid int) (aborted bool, pruned bool, execErr *ExecError) {
	curDec, curTarget := -1, 0
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.AbortSignal); ok {
				aborted = true
			} else {
				execErr = captureExecError(r)
			}
			if curDec >= 0 && ctl.trail[curDec].domain < 0 {
				ctl.closeCurrent(curDec, curTarget+1)
			}
		}
	}()
	for i := startPhase; i < len(phases); i++ {
		last := i == len(phases)-1
		if last {
			curDec = -1
			w.SetCrashTarget(-1)
		} else {
			curDec = ctl.pos
			curTarget = ctl.next(-1)
			w.SetCrashTarget(curTarget)
		}
		crashed := w.RunPhase(phases[i])
		if last {
			break
		}
		if !crashed && ctl.trail[curDec].domain < 0 {
			ctl.closeCurrent(curDec, curTarget+1)
		}
		curDec = -1
		cs := tr.Now()
		w.Crash()
		tr.CompleteSince(tid, "explore", "crash-resolution", cs, -1)
		if onCrash != nil && !onCrash(i, crashed) {
			return false, true, nil
		}
	}
	return false, false, nil
}

// hardWatchdogFactor scales StepTimeout into the hard watchdog bound:
// an execution still running this many timeouts past its soft abort is
// stalled — the AbortSignal is evidently being swallowed (a spawned
// thread's unwinder, a port's own recover) — and is quarantined through
// the ExecError path instead of aborted.
const hardWatchdogFactor = 4

// installProbe arms w's watchdog for one execution: the chaos fault
// plan (if any) and the step timeout. The probe runs before every
// memory operation and, via pmem.CountInterpStep's throttle, every 1024
// interpreted statements — so a loop that issues no operations still
// trips the timeout. When neither watchdog applies the probe stays nil
// and the hot path pays nothing.
//
// The timeout is two-tier: past StepTimeout the execution is aborted
// (pmem.AbortSignal, counted in Result.Aborted); past
// hardWatchdogFactor×StepTimeout — reachable only when the abort didn't
// terminate it — a stallFault panic quarantines the schedule as an
// ExecError of kind "stall".
func installProbe(w *pmem.World, opt *Options, ordinal int) {
	var fault Fault
	if opt.InjectFault != nil {
		fault = opt.InjectFault(ordinal)
	}
	if fault == (Fault{}) && opt.StepTimeout <= 0 {
		return
	}
	var start time.Time
	if opt.StepTimeout > 0 {
		start = time.Now()
	}
	delayed := false
	softFired := false
	w.SetProbe(func(ops int) {
		if fault.PanicAtOp > 0 && ops >= fault.PanicAtOp {
			panic(injectedFault{exec: ordinal, op: ops})
		}
		if fault.DelayAtOp > 0 && !delayed && ops >= fault.DelayAtOp {
			delayed = true
			time.Sleep(fault.Delay)
		}
		if opt.StepTimeout > 0 {
			since := time.Since(start)
			// The hard tier arms only after the soft abort was raised: a
			// probe that runs after softFired means something swallowed
			// the AbortSignal and the execution is still going. A single
			// long gap between probes (a slow op, a chaos delay) is not a
			// stall — it aborts like any other timeout.
			if softFired && since > hardWatchdogFactor*opt.StepTimeout {
				panic(stallFault{elapsed: since, limit: opt.StepTimeout})
			}
			if since > opt.StepTimeout {
				softFired = true
				panic(pmem.AbortSignal{})
			}
		}
	})
}

// countExec classifies one execution that ran into exactly one of the
// completion counters (pruned > quarantined > aborted > completed) and
// observes its duration. It runs at the execution site — every
// execution that ran is counted, even one the assembly later truncates
// at the budget — keeping the invariant
// started == completed + aborted + quarantined + pruned.
func (o *Options) countExec(pruned, aborted bool, execErr *ExecError, d time.Duration) {
	switch {
	case pruned:
		o.em.Pruned.Inc()
	case execErr != nil:
		o.em.Quarantined.Inc()
		o.fr.Record("explore", "quarantine", -1, execErr.Kind)
	case aborted:
		o.em.Aborted.Inc()
	default:
		o.em.Completed.Inc()
	}
	o.em.ExecNanos.Observe(int64(d))
}

// collect folds execution i of unit stream ur, canonical execution
// index, into the result; rep is its report (nil: a plain execution).
// Its one caller is the assembler, in strictly increasing index order
// (the collector contract behind Progress). Metric counters are emitted
// at the execution sites (countExec); only the random-mode frontier
// gauge lives here, because "remaining executions" is a collector-order
// notion.
func (r *Result) collect(ur *UnitResult, i int, rep *ExecReport, index int, seen map[string]bool, opt *Options) {
	if rep != nil {
		if rep.Aborted {
			r.Aborted++
		}
		if rep.Err != nil {
			r.Quarantined++
			if len(r.ExecErrors) < execErrorCap {
				r.ExecErrors = append(r.ExecErrors, rep.Err)
			}
		}
		for _, v := range rep.Violations {
			if k := v.Key(); !seen[k] {
				seen[k] = true
				r.Violations = append(r.Violations, v)
				r.ExecutionsToAllBugs = index + 1
			}
		}
	}
	r.Executions++
	r.Ops += ur.Ops[i]
	if len(ur.Retirements) > 0 {
		r.Retirements += ur.Retirements[i]
		r.RetiredStores += ur.RetiredStores[i]
		r.RetiredEvents += ur.RetiredEvents[i]
		r.PinnedRootsMax = max(r.PinnedRootsMax, ur.PinnedRoots[i])
		r.SweepNanos += ur.SweepNanos[i]
	}
	if opt.Mode == Random {
		opt.em.FrontierDepth.Set(int64(opt.Executions - r.Executions))
	}
	if opt.Progress != nil {
		opt.Progress(index + 1)
	}
}

// randomPlan is the per-run immutable context shared by all random-mode
// workers: the program, the pilot's crash-point ranges, and the derived
// machine configuration. Everything per-execution lives in the World.
type randomPlan struct {
	p           Program
	opt         *Options
	pilotCounts []int
	chooser     pmem.ReadChooser
	model       persist.Config
	drainPct    int
}

// planRandom runs the pilot execution and fixes the per-run knobs.
func planRandom(p Program, opt *Options) *randomPlan {
	phases := p.Phases()
	numPre := len(phases) - 1
	// Pilot execution: run the crashable phases crash-free to size the
	// crash-point ranges. A single-phase program has none to size.
	pilotCounts := make([]int, numPre)
	if numPre > 0 {
		// The pilot is sizing scaffolding, not exploration: strip the
		// observer so its ops never land in the campaign's counters. (A
		// supervised campaign runs one pilot per unit; fleet-aggregated
		// counters must still equal the in-process run's, which pilots
		// once.)
		pilotModel := opt.Model
		pilotModel.Obs = nil
		pilot := pmem.NewWorld(pmem.Config{Model: pilotModel, Seed: opt.Seed, OpLimit: opt.OpLimit})
		pilot.Checker.SetEnabled(false)
		countingPilot(phases[:numPre], pilot, pilotCounts)
	}

	chooser := pmem.ChooseAvoidingViolations(pmem.ChooseRandom)
	if opt.NoSteering {
		chooser = pmem.ChooseRandom
	}
	model := opt.Model
	drainPct := 0
	if opt.StoreBuffers {
		model.DelayedCommit = true
		drainPct = 25
	}
	return &randomPlan{p: p, opt: opt, pilotCounts: pilotCounts, chooser: chooser, model: model, drainPct: drainPct}
}

// workerState is one worker's reusable machinery in either mode: the
// world (machine, trace, checker, heap, RNG — reset between executions
// and, in model checking, across units), the controller its decisions
// replay through, the program's phase slice (Phases, resolved once per
// worker), its unit's reported keys, and the worker's
// observability identity (trace timeline tid and per-worker instrument
// bundle; zero when off).
type workerState struct {
	w        *pmem.World
	ctl      *controller
	phases   []func(*pmem.World)
	reported map[string]bool       // cleared at the start of every unit
	known    func(key string) bool // Options.known
	windowed bool                  // a bounded trace window: record fills the retirement columns
	tid      int                   // 1-based trace timeline id (tid 0 is the campaign thread)
	tr       *obs.Tracer
	wm       obs.WorkerMetrics
}

func newWorkerState(p Program, opt *Options, tid int) *workerState {
	ws := &workerState{ctl: &controller{}, phases: p.Phases(), reported: map[string]bool{}, known: opt.known, windowed: opt.Model.Window > 0, tid: tid, tr: opt.tr, wm: obs.WorkerInstruments(opt.Obs.Reg(), tid)}
	ws.tr.NameThread(tid, "worker-"+strconv.Itoa(tid))
	return ws
}

// isKnown is the known-key predicate (core.Checker.SetKnown) of the
// worker's worlds: reported earlier in the current unit, or collected by
// the campaign. DESIGN.md, "Collected-key skip", has the soundness case.
func (ws *workerState) isKnown(k string) bool {
	return ws.reported[k] || (ws.known != nil && ws.known(k))
}

// record appends one finished execution to ur's columns: a quarantined
// one (execErr set) as zeros plus its ExecError — its world is
// discarded unread — any other as world w's stats, with a report when it
// aborted or found violations new to the unit, which it marks reported.
// A list with an already-reported key is filtered in a copy: the
// checker's violations are its own slice and, after a snapshot restore,
// the snapshot's.
func (ws *workerState) record(ur *UnitResult, w *pmem.World, aborted bool, execErr *ExecError) {
	off := ur.N
	ur.N++
	var ops, sweep int64
	var rs trace.RetireStats
	if execErr == nil {
		ops = int64(w.Ops())
		if ws.windowed {
			rs, sweep = w.M.Trace().Retired(), w.SweepNanos()
		}
	}
	ur.Ops = append(ur.Ops, ops)
	if ws.windowed {
		ur.Retirements = append(ur.Retirements, int64(rs.Retirements))
		ur.RetiredStores = append(ur.RetiredStores, int64(rs.RetiredStores))
		ur.RetiredEvents = append(ur.RetiredEvents, int64(rs.RetiredEvents))
		ur.PinnedRoots = append(ur.PinnedRoots, int64(rs.MaxPinnedRoots))
		ur.SweepNanos = append(ur.SweepNanos, sweep)
	}
	if execErr != nil {
		ur.Reports = append(ur.Reports, ExecReport{Offset: off, Err: execErr})
		return
	}
	vs := w.Checker.Violations()
	reported := func(v *core.Violation) bool { return ws.reported[v.Key()] }
	if slices.ContainsFunc(vs, reported) {
		vs = slices.DeleteFunc(slices.Clone(vs), reported)
	}
	for _, v := range vs {
		ws.reported[v.Key()] = true
	}
	if aborted || len(vs) > 0 {
		ur.Reports = append(ur.Reports, ExecReport{Offset: off, Aborted: aborted, Violations: vs})
	}
}

// execute runs execution exec of a random-mode run and records it into
// ur. The seed is derived from the execution index alone, so the
// outcome is independent of which worker runs it and of every other
// execution. The sampled crash targets enter the phase driver as closed
// trail decisions.
func (pl *randomPlan) execute(ws *workerState, exec int, ur *UnitResult) time.Duration {
	opt := pl.opt
	start := time.Now()
	opt.em.Started.Inc()
	seed := opt.Seed + int64(exec)*2654435761
	if ws.w != nil && !opt.freshWorlds {
		ws.w.Reset(seed)
	} else {
		ws.w = pmem.NewWorld(pmem.Config{
			Model:              pl.model,
			Seed:               seed,
			OpLimit:            opt.OpLimit,
			Chooser:            pl.chooser,
			RandomDrainPercent: pl.drainPct,
			Provenance:         opt.Provenance,
		})
		ws.w.Checker.SetKnown(ws.isKnown)
	}
	w := ws.w
	if opt.DisableChecker {
		w.Checker.SetEnabled(false)
	}
	installProbe(w, opt, exec)
	ctl := ws.ctl
	ctl.trail, ctl.pos = ctl.trail[:0], 0
	for _, n := range pl.pilotCounts {
		// Uniform over [0, n]: before each fence-like op, or past the
		// end (crash after the last operation).
		t := w.Rand().Intn(n + 1)
		ctl.trail = append(ctl.trail, decision{val: t, domain: t + 1})
	}
	aborted, _, execErr := runPhasesMC(ws.phases, w, ctl, 0, nil, ws.tr, ws.tid)
	if execErr != nil {
		// The panic left the world in an undefined state: discard it
		// (never reuse, never lend) and drop its violations.
		ws.w = nil
		execErr.Exec, execErr.Seed, execErr.Program, execErr.Mode = exec, seed, pl.p.Name(), Random
	}
	ws.record(ur, w, aborted, execErr)
	d := time.Since(start)
	opt.countExec(false, aborted, execErr, d)
	ws.tr.Complete(ws.tid, "explore", "execution", start, d, int64(exec))
	if execErr == nil && opt.AfterExecution != nil {
		opt.AfterExecution(w)
	}
	return d
}

// runRange runs executions [lo, hi) of the canonical random stream on
// ws, appending their records to ur — the one random-mode loop behind
// Run's units and RunUnit's. A stop is checked before each execution
// and leaves ur.Done false.
func (pl *randomPlan) runRange(ws *workerState, lo, hi int, st *stopper, ur *UnitResult, sink unitSink) {
	clear(ws.reported)
	for exec := lo; exec < hi; exec++ {
		if st.stopped() {
			return
		}
		ws.wm.Dispatches.Inc()
		d := pl.execute(ws, exec, ur)
		ws.wm.BusyNanos.Add(int64(d))
		ur.WorkNanos += int64(d)
		sink.executed(ur.N)
	}
	ur.Done = true
}

// countingPilot runs the non-final phases crash-free, crashing the
// machine between them, and records how many fence-like operations each
// performs. The final phase is crash-free by construction, so nothing
// reads its count and the pilot never runs it.
func countingPilot(pre []func(*pmem.World), w *pmem.World, counts []int) {
	// A pilot cut short by an abort or a program panic keeps the counts
	// of the phases it completed. The executions run the same phases and
	// quarantine such a panic themselves, so the pilot swallows it.
	defer func() { _ = recover() }()
	for i, phase := range pre {
		w.SetCrashTarget(-1)
		w.RunPhase(phase)
		counts[i] = w.FenceOps()
		if i < len(pre)-1 {
			w.Crash()
		}
	}
}

// --- model checking mode: DFS over decision points ---

// decision is one recorded choice in the DFS trail. domain < 0 marks an
// open-ended crash-target decision whose range is discovered when a run
// no longer crashes.
type decision struct {
	val    int
	domain int
}

// controller replays a decision trail and extends it at new decision
// points, always choosing the first alternative.
type controller struct {
	trail []decision
	pos   int
}

func (c *controller) next(domain int) int {
	if c.pos < len(c.trail) {
		d := c.trail[c.pos]
		c.pos++
		return d.val
	}
	c.trail = append(c.trail, decision{val: 0, domain: domain})
	c.pos++
	return 0
}

// closeCurrent marks the most recently consumed decision's domain (used
// when a crash-target decision turns out to be past the phase's end).
func (c *controller) closeCurrent(idx int, domain int) {
	c.trail[idx].domain = domain
}

// mcWorld builds a fresh model-checking world whose read choices replay
// and extend the worker's decision trail.
func mcWorld(opt *Options, ws *workerState) *pmem.World {
	w := pmem.NewWorld(pmem.Config{
		Model:      opt.Model,
		OpLimit:    opt.OpLimit,
		Provenance: opt.Provenance,
		Chooser: func(_ *pmem.World, _ memmodel.ThreadID, _ memmodel.Addr, cands []persist.Candidate, _ trace.LocID) persist.Candidate {
			return cands[ws.ctl.next(len(cands))]
		},
	})
	w.Checker.SetKnown(ws.isKnown)
	if opt.DisableChecker {
		w.Checker.SetEnabled(false)
	}
	return w
}

// trailValues flattens a decision trail into the chosen values — the
// reproduction prefix an ExecError records.
func trailValues(trail []decision) []int {
	vals := make([]int, len(trail))
	for i, d := range trail {
		vals[i] = d.val
	}
	return vals
}
