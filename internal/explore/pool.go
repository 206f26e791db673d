// In-process exploration: Run's worker goroutines and the unit runner
// they share with RunUnit.
//
// Determinism is the design constraint. Per-execution worlds are fully
// self-contained (machine, trace, checker, heap, RNG), so executions
// can run on any worker; what must not leak is *scheduling*. Work comes
// in units from the Scheduler (scheduler.go): random-mode index ranges,
// whose executions derive their seeds from their indices, and
// model-check subtrees, split at the phase-0 crash targets. Workers
// claim units in canonical order, and the Scheduler folds each as soon
// as it and every earlier unit are done, which is byte-for-byte the
// order a single worker visits, truncated at the Executions cap. See
// DESIGN.md, "Subtree units".
//
// Graceful degradation preserves both properties: workers consult the
// run's stopper only *between* executions (an execution, once started,
// always runs to completion and is collected), so a stopped run's
// collected stream is always a contiguous prefix of the uninterrupted
// run's canonical stream — which is what makes the checkpoint cut
// well-defined and resume deterministic.
package explore

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// maxRandomBatch caps the executions of one of Run's random-mode units.
// Batching amortizes the claim and the fold; the cap keeps the streams
// held out of order small.
const maxRandomBatch = 8

// randomBatchSize sizes Run's random-mode units. A single worker runs
// one execution per unit: it has no handoff to amortize, and Progress
// keeps its per-execution cadence. Wider runs grow the unit with the
// per-worker backlog up to maxRandomBatch.
func randomBatchSize(opt *Options) int {
	if opt.Workers == 1 {
		return 1
	}
	return min(max(opt.Executions/(opt.Workers*lookahead*2), 1), maxRandomBatch)
}

// runUnits is Run: opt.Workers goroutines, the calling one among them,
// claim units from the scheduler and run them; the scheduler folds each
// as soon as every earlier unit has, so Progress callbacks see strictly
// increasing indices however the units were scheduled. Collection stops
// at the cut, the first unit with uncollected work; everything
// canonically after it is dropped and re-derived on resume.
func runUnits(p Program, opt *Options, st *stopper) *Result {
	s := newScheduler(p.Name(), opt, randomBatchSize(opt))
	s.st = st
	opt.known = s.a.isKnown
	r := newUnitRunner(p, opt, st, s.keys)
	var wg sync.WaitGroup
	for i := 1; i < opt.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.worker(s, i)
		}()
	}
	r.worker(s, 0)
	wg.Wait()
	reason := ""
	if st.stopped() {
		reason = st.why()
	}
	return s.Close(reason)
}

// unitSink receives a running unit's progress: its scheduler Unit in
// Run, RunUnit's hooks and budget otherwise.
type unitSink interface {
	// allows reports whether a model-check unit that has recorded n
	// executions may run another.
	allows(n int) bool
	// executed reports that the unit has recorded n executions.
	executed(n int)
	// classify reports a model-check unit's first-crash classification.
	classify(c UnitClassification)
}

// hookSink adapts RunUnit's hooks and budget to the unit runner.
type hookSink struct {
	UnitHooks
	limit int
}

func (h hookSink) allows(n int) bool { return n < h.limit }

func (h hookSink) executed(n int) {
	if h.OnExec != nil {
		h.OnExec(n)
	}
}

func (h hookSink) classify(c UnitClassification) {
	if h.OnClassify != nil {
		h.OnClassify(c)
	}
}

// unitRunner runs work units in this process: every worker of a Run
// shares one, and RunUnit builds one per unit.
type unitRunner struct {
	p      Program
	opt    *Options
	st     *stopper
	plan   *randomPlan // random mode
	numPre int         // model checking: crashable phases
	// reg is the campaign metrics registry (nil when observability is
	// off); it gates the runner's optional timestamps.
	reg   *obs.Registry
	cache *stateCache // model checking; nil when disabled
}

// newUnitRunner prepares opt.Mode's units: the random-mode pilot, or
// the model-check state cache primed with keys, the registrations of
// the subtrees before the first unit to run.
func newUnitRunner(p Program, opt *Options, st *stopper, keys []CacheEntry) *unitRunner {
	r := &unitRunner{p: p, opt: opt, st: st, reg: opt.Obs.Reg()}
	if opt.Mode == Random {
		r.plan = planRandom(p, opt)
		return r
	}
	r.numPre = len(p.Phases()) - 1
	if opt.useStateCache() && r.numPre > 0 {
		r.cache = newStateCache(obs.CacheInstruments(r.reg))
		for _, ce := range keys {
			r.cache.prime(cacheKey{image: ce.Image, heap: ce.Heap})
		}
	}
	return r
}

// run runs unit spec on ws into ur.
func (r *unitRunner) run(ws *workerState, spec UnitSpec, sink unitSink, ur *UnitResult) {
	if spec.Random != nil {
		r.plan.runRange(ws, spec.Random.Lo, spec.Random.Hi, r.st, ur, sink)
		return
	}
	r.runSubtree(ws, spec.MC, sink, ur)
}

// worker claims and runs units until the scheduler has none left. The
// world is reused across executions and units (World.Reset restores the
// initial state exactly; the reuse property test asserts it).
func (r *unitRunner) worker(s *Scheduler, id int) {
	ws := newWorkerState(r.p, r.opt, id+1)
	metered := ws.wm.IdleNanos != nil
	for {
		var idleStart time.Time
		if metered {
			idleStart = time.Now()
		}
		u := s.Claim()
		if metered {
			idle := int64(time.Since(idleStart))
			ws.wm.IdleNanos.Add(idle)
			r.opt.em.WorkerIdle.Add(idle)
		}
		if u == nil {
			return
		}
		r.run(ws, u.Spec, u, &u.res)
		s.Finish(u, &u.res)
	}
}

// --- model checking: subtree units ---

// phaseSnap is one crash-boundary world snapshot on a work unit's
// current DFS path. It is taken immediately after the crash at `phase`,
// with `pos` controller decisions consumed; restoring it and rerunning
// phases phase+1.. replays the execution's suffix without re-executing
// the prefix. A snapshot stays valid for as long as decisions [0, pos)
// are unchanged — i.e. while every backtrack changes a decision at
// index >= pos (lazy consumption in runPhasesMC makes trail order equal
// decision-use order, which is what makes this check sufficient).
type phaseSnap struct {
	ws    *pmem.WorldSnapshot
	phase int
	pos   int
}

// pruneSnaps pops snapshots invalidated by a backtrack that changed the
// decision at index `changed` (and truncated everything after it).
func pruneSnaps(snaps []phaseSnap, changed int) []phaseSnap {
	for len(snaps) > 0 && snaps[len(snaps)-1].pos > changed {
		snaps[len(snaps)-1] = phaseSnap{} // release the snapshot
		snaps = snaps[:len(snaps)-1]
	}
	return snaps
}

// backtrack advances the trail to the next unexplored branch, reporting
// false once the subtree is exhausted. A subtree's primed phase-0
// decision is closed at its own value, so backtracking never leaves it.
func (c *controller) backtrack() bool {
	for len(c.trail) > 0 {
		last := &c.trail[len(c.trail)-1]
		if last.domain < 0 || last.val+1 < last.domain {
			last.val++
			c.pos = 0
			return true
		}
		c.trail = c.trail[:len(c.trail)-1]
	}
	return false
}

// runSubtree runs model-check unit mc into ur: every execution of the
// decision tree under its starting trail — subtree mc.Subtree, or a
// resumed checkpoint's trail inside it — in depth-first order, while
// sink allows. A stop parks the unit with ur.cut, its resume point.
//
// Prefix snapshots (useSnaps) ride on the sub-DFS: after every crash
// the world is snapshotted; after a backtrack the deepest snapshot whose
// decision prefix is still unchanged is restored and only the suffix
// phases re-run. Results are bit-identical, with integer-factor fewer
// phase executions. Snapshots are unit-local, so any worker count, and
// any checkpoint cut, produces the same canonical stream. They rest on
// the Program contract: a snapshot resume re-enters a later phase
// without re-running earlier ones.
func (r *unitRunner) runSubtree(ws *workerState, mc *MCCheckpoint, sink unitSink, ur *UnitResult) {
	ws.wm.Dispatches.Inc()
	unitStart := time.Now()
	clear(ws.reported)
	ctl := ws.ctl
	ctl.trail, ctl.pos = ctl.trail[:0], 0
	first := !mc.Started
	if !first {
		// Resume mid-subtree: the classification, and the successor spawn
		// it implies, happened before the checkpoint cut.
		ctl.trail = trailFromCheckpoint(mc.Trail)
	} else if r.numPre > 0 {
		ctl.trail = append(ctl.trail, decision{val: mc.Subtree, domain: mc.Subtree + 1})
	}
	// spawnNext: the phase-0 injection fired, so subtree Subtree+1 exists.
	spawnNext := mc.SpawnNext
	useSnaps := r.opt.useSnapshots()
	// snaps is unit-local: a unit's first execution always replays from
	// the program start (or a fresh world), never from another unit's
	// snapshot.
	var snaps []phaseSnap
	// onCrash runs after every crash of every execution: first-execution
	// subtree classification, then the snapshot.
	onCrash := func(phase int, fired bool) bool {
		if first && phase == 0 {
			// The subtree's first execution classifies the subtree at
			// its first crash: consult the state cache (every execution
			// of the subtree shares the same phase-0 prefix and so the
			// same crash-0 image), then record whether the injection
			// fired, i.e. whether the next subtree exists.
			keep := true
			if r.cache != nil {
				ps := r.opt.tr.Now()
				k := stateKey(ws.w)
				hit := r.cache.lookupOrRegister(k)
				r.opt.tr.CompleteSince(ws.tid, "statecache", "cache-probe", ps, -1)
				if hit {
					ur.Class.Pruned = true
					keep = false
				} else {
					ur.Class.Keyed = true
					ur.Class.Key = CacheEntry{Image: k.image, Heap: k.heap}
				}
			}
			if fired && r.numPre > 0 {
				ur.Class.InjectionFired = true
				spawnNext = true
			}
			ur.Classified = true
			sink.classify(ur.Class)
			if !keep {
				return false
			}
		}
		if useSnaps {
			snaps = append(snaps, phaseSnap{ws: ws.w.Snapshot(), phase: phase, pos: ctl.pos})
			r.opt.em.SnapshotsTaken.Inc()
		}
		return true
	}
	for {
		if r.st.stopped() {
			// Snapshot the resume point: the trail sits at the next
			// unexplored execution (backtrack already advanced it).
			ur.cut = &MCCheckpoint{Subtree: mc.Subtree, Started: !first, SpawnNext: spawnNext}
			if ur.cut.Started {
				ur.cut.Trail = trailToCheckpoint(ctl.trail)
			}
			break
		}
		if !sink.allows(len(ur.Execs)) {
			break
		}
		r.opt.em.Started.Inc()
		var execStart time.Time
		if r.reg != nil || r.opt.tr != nil {
			execStart = time.Now()
		}
		startPhase := 0
		switch {
		case ws.w == nil || r.opt.freshWorlds:
			ws.w = mcWorld(r.opt, ws)
			snaps = pruneSnaps(snaps, -1)
			ctl.pos = 0
		case len(snaps) > 0:
			// Resume from the deepest crash snapshot that survived the
			// last backtrack: the world state after phase `top.phase`'s
			// crash, with `top.pos` decisions consumed, is identical to
			// what a full replay would recompute.
			top := snaps[len(snaps)-1]
			ws.w.Restore(top.ws)
			ctl.pos = top.pos
			startPhase = top.phase + 1
			ur.SnapshotRestores++
			r.opt.em.SnapshotsRestored.Inc()
		default:
			ws.w.Reset(0)
			if r.opt.DisableChecker {
				ws.w.Checker.SetEnabled(false)
			}
			ctl.pos = 0
		}
		installProbe(ws.w, r.opt, len(ur.Execs))
		oc := onCrash
		if !first && !useSnaps {
			oc = nil // no per-crash work left; keep the hot path bare
		}
		aborted, pruned, execErr := runPhasesMC(ws.phases, ws.w, ctl, startPhase, oc, r.opt.tr, ws.tid)
		var ex UnitExec
		if !pruned {
			ex = execResult(ws.w, aborted, execErr)
		}
		var d time.Duration
		if !execStart.IsZero() {
			d = time.Since(execStart)
			r.opt.tr.Complete(ws.tid, "explore", "execution", execStart, d, -1)
		}
		r.opt.countExec(pruned, &ex, d)
		first = false
		if pruned {
			// The whole subtree is a duplicate of one already explored;
			// it contributes no executions.
			ur.Done = true
			break
		}
		if execErr != nil {
			// The panic left the world in an undefined state: discard it
			// (next iteration builds fresh) along with every snapshot
			// taken in it; its canonical index is assigned at assembly.
			execErr.Program = r.p.Name()
			execErr.Mode = ModelCheck
			execErr.Prefix = trailValues(ctl.trail)
			ws.w = nil
			snaps = pruneSnaps(snaps, -1)
		} else if r.opt.AfterExecution != nil {
			r.opt.AfterExecution(ws.w)
		}
		ws.record(ur, ex)
		sink.executed(len(ur.Execs))
		if !ctl.backtrack() {
			ur.Done = true
			break
		}
		// pChanged is the trail index of the decision the backtrack
		// changed: decisions before it replay the previous execution's
		// prefix unchanged, and snapshots taken past it are stale.
		pChanged := len(ctl.trail) - 1
		snaps = pruneSnaps(snaps, pChanged)
	}
	// Snapshots never outlive the unit (the world is reused by the next
	// one).
	pruneSnaps(snaps, -1)
	d := int64(time.Since(unitStart))
	ur.WorkNanos += d
	ws.wm.BusyNanos.Add(d)
}
