// Parallel exploration engine: a worker pool for random mode and a
// chain of subtree work units for model-checking mode.
//
// Determinism is the design constraint. Per-execution worlds are fully
// self-contained (machine, trace, checker, heap, RNG), so executions
// can run on any worker; what must not leak is *scheduling*. Random
// mode derives every execution's seed from its index, and a collector
// folds outcomes into the result strictly in index order (workers hand
// batches of consecutive outcomes over in one channel send each).
// Model-check mode splits the DFS at its phase-0 crash targets: each
// subtree is one work unit, the same unit RunUnit runs for the dispatch
// supervisor. Workers claim units in subtree order, and the Assembler
// folds each unit as soon as it and every earlier unit are done, which
// is byte-for-byte the order a single worker visits, truncated at the
// Executions cap. See DESIGN.md, "Subtree units".
//
// Graceful degradation preserves both properties: workers consult the
// run's stopper only *between* executions (an execution, once claimed,
// always runs to completion and is collected), so a stopped run's
// collected stream is always a contiguous prefix of the uninterrupted
// run's canonical stream — which is what makes the checkpoint cut
// well-defined and resume deterministic.
package explore

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// collectorSlack bounds how far ahead of the collector workers may run:
// at most Workers*collectorSlack batches are in flight or buffered out
// of order at once, which bounds retained worlds/violations.
const collectorSlack = 4

// maxRandomBatch caps how many consecutive executions a random-mode
// worker claims per collector handoff. Batching amortizes the channel
// send and the collector wakeup; the cap keeps stop latency (a claimed
// batch always runs to completion) and out-of-order buffering small.
const maxRandomBatch = 8

// execBatch is one worker's chunk of consecutive executions, published
// to the collector in a single channel send.
type execBatch struct {
	base int // index of ur.Execs[0]
	ur   *UnitResult
}

// randomBatchSize picks the per-claim batch for a run: it grows with
// the per-worker backlog up to maxRandomBatch.
func randomBatchSize(opt *Options) int {
	b := opt.Executions / (opt.Workers * collectorSlack * 2)
	if b < 1 {
		b = 1
	}
	if b > maxRandomBatch {
		b = maxRandomBatch
	}
	return b
}

// runRandomParallel fans random-mode executions over opt.Workers
// goroutines and folds them into the Assembler in index order. Results
// are bit-identical to a single worker's: seeds depend only on indices,
// and the collector emits in index order on the calling goroutine. The
// stop check sits before the batch claim, so every claimed batch is
// executed and sent in full — the collected stream has no gaps and the
// assembler's cursor ends at the exact resume point.
func runRandomParallel(plan *randomPlan, a *Assembler, st *stopper) {
	opt := plan.opt
	batch := randomBatchSize(opt)
	tokens := make(chan struct{}, opt.Workers*collectorSlack)
	outc := make(chan execBatch, opt.Workers*collectorSlack)
	next := int64(a.idx) - int64(batch)
	var wg sync.WaitGroup
	for i := 0; i < opt.Workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ws := newWorkerState(plan.p, opt, id+1) // worker-lifetime reusable world + scratch
			metered := ws.wm.IdleNanos != nil
			for {
				var idleStart time.Time
				if metered {
					idleStart = time.Now()
				}
				select {
				case tokens <- struct{}{}: // wait for the collector to keep up
				case <-st.done():
					return
				}
				if metered {
					idle := int64(time.Since(idleStart))
					ws.wm.IdleNanos.Add(idle)
					opt.em.WorkerIdle.Add(idle)
				}
				if st.stopped() {
					<-tokens
					return
				}
				base := int(atomic.AddInt64(&next, int64(batch)))
				if base >= opt.Executions {
					<-tokens
					return
				}
				end := min(base+batch, opt.Executions)
				ur := &UnitResult{Execs: make([]UnitExec, 0, end-base)}
				// No stop check inside the batch: a claimed batch always
				// completes, keeping the collected stream gapless.
				plan.runRange(ws, base, end, nil, ur, nil)
				outc <- execBatch{base: base, ur: ur}
			}
		}(i)
	}
	go func() {
		wg.Wait()
		close(outc)
	}()
	// Ordered collector: buffer out-of-order batches, emit in base
	// order, releasing one token per emitted batch. Any pending base is
	// held by a worker that owns a token, so the collector can never
	// wait on a worker that is blocked acquiring one; and since claimed
	// bases are contiguous and always delivered, draining outc to close
	// leaves no gap below the final cursor.
	pending := make(map[int]*UnitResult)
	nextBase := a.idx
	for b := range outc {
		pending[b.base] = b.ur
		for {
			ur, ok := pending[nextBase]
			if !ok {
				break
			}
			delete(pending, nextBase)
			a.addUnit(ur, nil)
			nextBase += batch
			<-tokens
		}
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

// dporKey identifies a deeper (phase >= 1) crash state completely: the
// surviving persistent image, the allocator mark, the op-budget
// position, the checker's constraint state, and the committed trace.
// Two executions of one subtree that reach equal keys along different
// decision prefixes have identical continuation trees — every future
// load sees the same candidates, the checker commits the same future
// constraints, and the op budget trips at the same point — so the
// second continuation is pruned (dynamic partial-order reduction).
// Every component is derived from path-deterministic identities (store
// IDs, label strings), never raw interner IDs, so keys computed in
// different worlds — or different processes, via checkpoints — compare
// correctly. See DESIGN.md, "Prefix snapshots and partial-order
// reduction", for why read-choice decisions need no such check.
type dporKey struct {
	phase   int
	image   uint64
	heap    int
	ops     int
	checker uint64
	trace   uint64
}

// dporKeyOf computes the key of a just-crashed world.
func dporKeyOf(phase int, w *pmem.World) dporKey {
	return dporKey{
		phase:   phase,
		image:   w.M.PersistFingerprint(),
		heap:    w.Heap.Used(),
		ops:     w.Ops(),
		checker: w.Checker.StateFingerprint(),
		trace:   w.M.Trace().CommittedFingerprint(),
	}
}

// dporKeysOf serializes a registration set in a stable order for
// checkpoints.
func dporKeysOf(seen map[dporKey]struct{}) []DPORKey {
	if len(seen) == 0 {
		return nil
	}
	ks := make([]DPORKey, 0, len(seen))
	for k := range seen {
		ks = append(ks, DPORKey{Phase: k.phase, Image: k.image, Heap: k.heap, Ops: k.ops, Checker: k.checker, Trace: k.trace})
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		if a.Heap != b.Heap {
			return a.Heap < b.Heap
		}
		if a.Ops != b.Ops {
			return a.Ops < b.Ops
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Trace < b.Trace
	})
	return ks
}

// mcUnit is one work unit of model checking: the sub-DFS over every
// execution whose phase-0 crash target is the unit's ordinal (the whole
// decision tree for a single-phase program). It is the unit RunUnit
// runs, described by an MCCheckpoint.
type mcUnit struct {
	v   int // subtree ordinal (= phase-0 crash target)
	idx int // position in the engine's unit chain
	// trail is the unit's starting decision trail. A resumed unit starts
	// mid-subtree: its classification, and the successor spawn it
	// implies, happened before the checkpoint cut.
	trail   []decision
	resumed bool
	// spawnNext: the phase-0 injection fired, so subtree v+1 exists
	// (restored from the checkpoint on resume).
	spawnNext bool
	// res is the unit's stream in sub-DFS order; res.Class is the
	// first-crash classification of a unit that is not resumed.
	res UnitResult
	// nexecs mirrors len(res.Execs) for later units' allowance checks.
	nexecs atomic.Int64

	// claimed: a worker took the unit; finished: its run returned;
	// started: it ran at least one execution; stopped/trailSnap: it
	// observed a stop at its loop top and snapshotted its trail, the
	// checkpoint resume point.
	claimed, finished, started, stopped bool
	trailSnap                           []decision
	// dporSnap is the unit's partial-order-reduction registration set as
	// of the stop, pre-seeded with a resumed checkpoint's keys so a unit
	// parked before running re-checkpoints them intact.
	dporSnap []DPORKey
}

// mcEngine runs model checking as a chain of subtree units. Run's
// workers claim units in canonical order and fold each into the
// Assembler once it and every earlier unit have finished; RunUnit runs
// a one-unit chain. Both go through runSubtree.
type mcEngine struct {
	p      Program
	opt    *Options
	st     *stopper
	numPre int
	// reg is the campaign metrics registry (nil when observability is
	// off); it gates the engine's optional timestamps.
	reg   *obs.Registry
	cache *stateCache // nil when disabled
	// limit bounds the executions the chain may record: the Executions
	// cap less a resumed checkpoint's collected count in Run, the spec's
	// budget in RunUnit.
	limit int
	// classified runs at a unit's first crash: Run extends the chain,
	// RunUnit reports to its hook. onExec is RunUnit's per-execution hook.
	classified func(u *mcUnit)
	onExec     func(n int)

	mu      sync.Mutex
	cond    *sync.Cond
	units   []*mcUnit
	claimed int // units[:claimed] were taken by a worker
	folded  int // units[:folded] were handed to the Assembler
	active  int // workers currently running a unit
	a       *Assembler
}

func newMCEngine(p Program, opt *Options, st *stopper, limit int) *mcEngine {
	e := &mcEngine{
		p:      p,
		opt:    opt,
		st:     st,
		numPre: len(p.Phases()) - 1,
		reg:    opt.Obs.Reg(),
		limit:  limit,
	}
	e.cond = sync.NewCond(&e.mu)
	if opt.useStateCache() && e.numPre > 0 {
		e.cache = newStateCache(obs.CacheInstruments(e.reg))
	}
	return e
}

// seed appends the chain's first unit from its checkpoint description:
// subtree mc.Subtree, fresh or resumed mid-DFS, with the state cache
// primed by the registrations of every earlier subtree.
func (e *mcEngine) seed(mc *MCCheckpoint) *mcUnit {
	if e.cache != nil {
		for _, ce := range mc.CacheKeys {
			e.cache.prime(cacheKey{image: ce.Image, heap: ce.Heap})
		}
	}
	u := e.spawn(mc.Subtree)
	if mc.Started {
		// Resume the cut subtree mid-DFS: adopt its trail and restore its
		// classification outcome, so a second cut re-checkpoints it
		// faithfully. The DPOR registrations ride along (keys are
		// path-deterministic, so they compare across processes).
		u.resumed = true
		u.trail = trailFromCheckpoint(mc.Trail)
		u.spawnNext = mc.SpawnNext
		u.dporSnap = mc.DPORKeys
	}
	return u
}

// spawn appends subtree v's unit to the chain. Only the chain's last
// unit classifies a successor, so the chain stays in canonical order,
// and the cache is probed in subtree order at any worker count.
func (e *mcEngine) spawn(v int) *mcUnit {
	u := &mcUnit{v: v}
	if e.numPre > 0 {
		u.trail = []decision{{val: v, domain: v + 1}}
	}
	e.opt.em.FrontierDepth.Add(1)
	e.mu.Lock()
	u.idx = len(e.units)
	e.units = append(e.units, u)
	e.mu.Unlock()
	e.cond.Broadcast()
	return u
}

// allowance reports whether unit u may run another execution under the
// limit, less the executions recorded by every earlier unit. Those
// counts only grow toward their final values, so the check is
// conservative: a unit can overshoot (trimmed at assembly) but never
// stops before producing every execution the canonical first-cap
// prefix needs.
func (e *mcEngine) allowance(u *mcUnit) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	sum := 0
	for _, v := range e.units[:u.idx] {
		sum += int(v.nexecs.Load())
	}
	return len(u.res.Execs) < e.limit-sum
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

// claim takes the chain's first unclaimed unit, waiting while a running
// unit may still extend the chain. It returns nil once the run is
// stopped or the chain is exhausted.
func (e *mcEngine) claim() *mcUnit {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.st.stopped() && e.claimed == len(e.units) && e.active > 0 {
		e.cond.Wait()
	}
	if e.st.stopped() || e.claimed == len(e.units) {
		return nil
	}
	u := e.units[e.claimed]
	e.claimed++
	e.active++
	u.claimed = true
	return u
}

// finish marks u finished and folds every unit of the finished prefix.
func (e *mcEngine) finish(u *mcUnit) {
	e.mu.Lock()
	u.finished = true
	e.active--
	e.foldLocked()
	e.mu.Unlock()
	e.cond.Broadcast()
}

// foldLocked hands the finished prefix of the chain to the Assembler in
// canonical order, so units that run later see its keys as known.
// Callers hold e.mu, which also serializes the Progress callbacks.
// RunUnit's engine has no Assembler: the supervisor folds its stream.
func (e *mcEngine) foldLocked() {
	for e.a != nil && e.folded < len(e.units) && e.units[e.folded].finished {
		u := e.units[e.folded]
		e.a.classify(u.res.Class)
		e.a.addUnit(&u.res, e.resumePoint(u))
		e.folded++
	}
}

// worker claims and runs units until the chain is exhausted or the run
// stops. The stop check happens before claiming, so a stopped run
// leaves the remaining units parked with their starting trails intact
// for the checkpoint.
func (e *mcEngine) worker(id int) {
	// The world is reused across executions and units (World.Reset
	// restores the initial state exactly; the reuse property test
	// asserts it).
	ws := newWorkerState(e.p, e.opt, id+1)
	metered := ws.wm.IdleNanos != nil
	for {
		var idleStart time.Time
		if metered {
			idleStart = time.Now()
		}
		u := e.claim()
		if metered {
			idle := int64(time.Since(idleStart))
			ws.wm.IdleNanos.Add(idle)
			e.opt.em.WorkerIdle.Add(idle)
		}
		if u == nil {
			return
		}
		ws.wm.Dispatches.Inc()
		start := time.Now()
		e.runSubtree(u, ws)
		d := int64(time.Since(start))
		u.res.WorkNanos += d
		ws.wm.BusyNanos.Add(d)
		e.opt.em.FrontierDepth.Add(-1)
		e.finish(u)
	}
}

// runSubtree runs unit u's sub-DFS: every execution of the decision
// tree under u.trail, in depth-first order.
//
// Two reductions ride on the sub-DFS, both unit-local so any worker
// count, and any checkpoint cut, produces the same canonical stream:
//
//   - Prefix snapshots (useSnaps): after every crash the world is
//     snapshotted; after a backtrack the deepest snapshot whose decision
//     prefix is still unchanged is restored and only the suffix phases
//     re-run. Bit-identical results, integer-factor fewer phase
//     executions.
//   - DPOR (dporSeen != nil): a deeper crash state equal to one already
//     enumerated in this subtree is pruned, counted like a state-cache
//     prune and contributing no execution. The check is skipped while
//     the trail is still replaying the previous execution's prefix
//     (ctl.pos <= pChanged): an unchanged prefix trivially reproduces
//     its own registered states and must not prune its own siblings.
//
// Both rest on the Program contract: a snapshot resume re-enters a
// later phase without re-running earlier ones, and DPOR's
// equal-state-equal-continuation argument needs all cross-phase state
// inside the World (or identical in every execution).
func (e *mcEngine) runSubtree(u *mcUnit, ws *workerState) {
	clear(ws.reported)
	ctl := ws.ctl
	ctl.trail = u.trail
	ctl.pos = 0
	first := !u.resumed
	// pChanged is the trail index of the decision the last backtrack
	// changed: decisions at indices <= pChanged replay the previous
	// execution's prefix unchanged. -1 before a fresh subtree's first
	// execution (everything is new); a resumed trail sits just after a
	// backtrack, so its whole prefix counts.
	pChanged := -1
	if !first {
		pChanged = len(ctl.trail) - 1
	}
	useSnaps := e.opt.useSnapshots()
	var dporSeen map[dporKey]struct{}
	if e.opt.useDPOR() && e.numPre > 1 {
		dporSeen = make(map[dporKey]struct{})
		for _, k := range u.dporSnap {
			dporSeen[dporKey{phase: k.Phase, image: k.Image, heap: k.Heap, ops: k.Ops, checker: k.Checker, trace: k.Trace}] = struct{}{}
		}
	}
	// snaps is unit-local: a unit's first execution always replays from
	// the program start (or a fresh world), never from another unit's
	// snapshot.
	var snaps []phaseSnap
	dporHit := false
	// onCrash runs after every crash of every execution: first-execution
	// subtree classification, then the DPOR probe, then the snapshot.
	onCrash := func(phase int, fired bool) bool {
		if first && phase == 0 {
			// The subtree's first execution classifies the subtree at
			// its first crash: consult the state cache (every execution
			// of the subtree shares the same phase-0 prefix and so the
			// same crash-0 image), then record whether the injection
			// fired, i.e. whether the next subtree exists.
			keep := true
			if e.cache != nil {
				ps := e.opt.tr.Now()
				k := stateKey(ws.w)
				hit := e.cache.lookupOrRegister(k)
				e.opt.tr.CompleteSince(ws.tid, "statecache", "cache-probe", ps, -1)
				if hit {
					u.res.Class.Pruned = true
					keep = false
				} else {
					u.res.Class.Keyed = true
					u.res.Class.Key = CacheEntry{Image: k.image, Heap: k.heap}
				}
			}
			if fired && e.numPre > 0 {
				u.res.Class.InjectionFired = true
				u.spawnNext = true
			}
			e.classified(u)
			if !keep {
				return false
			}
		}
		if dporSeen != nil && phase >= 1 && ctl.pos > pChanged {
			k := dporKeyOf(phase, ws.w)
			if _, ok := dporSeen[k]; ok {
				dporHit = true
				return false
			}
			dporSeen[k] = struct{}{}
		}
		if useSnaps {
			snaps = append(snaps, phaseSnap{ws: ws.w.Snapshot(), phase: phase, pos: ctl.pos})
			e.opt.em.SnapshotsTaken.Inc()
		}
		return true
	}
	for {
		if e.st.stopped() {
			// Snapshot the resume point: the trail sits at the next
			// unexplored execution (backtrack already advanced it).
			u.stopped = true
			u.trailSnap = append([]decision(nil), ctl.trail...)
			if dporSeen != nil {
				u.dporSnap = dporKeysOf(dporSeen)
			}
			break
		}
		if !e.allowance(u) {
			break
		}
		e.opt.em.Started.Inc()
		var execStart time.Time
		if e.reg != nil || e.opt.tr != nil {
			execStart = time.Now()
		}
		startPhase := 0
		switch {
		case ws.w == nil || e.opt.freshWorlds:
			ws.w = mcWorld(e.opt, ws)
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
			u.res.SnapshotRestores++
			e.opt.em.SnapshotsRestored.Inc()
		default:
			ws.w.Reset(0)
			if e.opt.DisableChecker {
				ws.w.Checker.SetEnabled(false)
			}
			ctl.pos = 0
		}
		installProbe(ws.w, e.opt, len(u.res.Execs))
		oc := onCrash
		if !first && dporSeen == nil && !useSnaps {
			oc = nil // no per-crash work left; keep the hot path bare
		}
		aborted, pruned, execErr := runPhasesMC(ws.phases, ws.w, ctl, startPhase, oc, e.opt.tr, ws.tid)
		var ex UnitExec
		if !pruned {
			ex = execResult(ws.w, aborted, execErr)
		}
		var d time.Duration
		if !execStart.IsZero() {
			d = time.Since(execStart)
			e.opt.tr.Complete(ws.tid, "explore", "execution", execStart, d, -1)
		}
		e.opt.countExec(pruned, &ex, d)
		first = false
		u.started = true
		if pruned && !dporHit {
			// The whole subtree is a duplicate of one already explored;
			// it contributes no executions.
			u.res.Done = true
			break
		}
		if dporHit {
			// A deeper crash state already enumerated in this subtree:
			// the continuation is skipped (counted in Pruned, no
			// execution recorded), the sub-DFS walks on.
			dporHit = false
			u.res.DPORPruned++
			e.opt.em.DPORPruned.Inc()
		} else {
			if execErr != nil {
				// The panic left the world in an undefined state: discard
				// it (next iteration builds fresh) along with every
				// snapshot taken in it; its canonical index is assigned
				// at assembly. DPOR registrations survive — the keys are
				// path-deterministic, not world-relative.
				execErr.Program = e.p.Name()
				execErr.Mode = ModelCheck
				execErr.Prefix = trailValues(ctl.trail)
				ws.w = nil
				snaps = pruneSnaps(snaps, -1)
			} else if e.opt.AfterExecution != nil {
				e.opt.AfterExecution(ws.w)
			}
			ws.record(&u.res, ex)
			u.nexecs.Add(1)
			if e.onExec != nil {
				e.onExec(len(u.res.Execs))
			}
		}
		if !ctl.backtrack() {
			u.res.Done = true
			break
		}
		pChanged = len(ctl.trail) - 1
		snaps = pruneSnaps(snaps, pChanged)
	}
	// Snapshots never outlive the unit (the world is reused by the next
	// one).
	pruneSnaps(snaps, -1)
}

// resumePoint is unit u's checkpoint cut, or nil when it has none: it
// finished, or it bowed out on its allowance mid-DFS (budget
// truncation; re-run with a larger budget instead). A cut position
// lines up with a trail when u observed the stop at its loop top
// (trailSnap) or never ran (its starting trail).
func (e *mcEngine) resumePoint(u *mcUnit) *MCCheckpoint {
	if u.res.Done || (u.claimed && !u.stopped) {
		return nil
	}
	mc := &MCCheckpoint{
		Subtree:   u.v,
		Started:   u.started || u.resumed,
		SpawnNext: u.spawnNext,
	}
	if mc.Started {
		src := u.trail
		if u.stopped {
			src = u.trailSnap
		}
		mc.Trail = trailToCheckpoint(src)
		mc.DPORKeys = u.dporSnap
	}
	return mc
}

// runMC is model-checking mode: Workers goroutines (the calling one
// among them) claim subtree units in canonical order, and finished
// units fold into the Assembler as soon as every earlier one has, so
// collector callbacks (Progress) see strictly increasing indices no
// matter how units were scheduled. Collection stops at the cut, the
// first unit with uncollected work; everything canonically after it is
// dropped and re-derived on resume.
func runMC(p Program, opt *Options, st *stopper) *Result {
	a := newAssembler(p.Name(), opt)
	opt.known = a.isKnown
	first, limit := &MCCheckpoint{}, opt.Executions
	if ck := opt.Resume; ck != nil && ck.MC != nil {
		first, limit = ck.MC, opt.Executions-ck.Collected
	}
	e := newMCEngine(p, opt, st, limit)
	e.a = a
	e.classified = func(u *mcUnit) {
		if u.spawnNext {
			e.spawn(u.v + 1)
		}
	}
	if u := e.seed(first); u.resumed && u.spawnNext {
		e.spawn(u.v + 1)
	}
	var wg sync.WaitGroup
	for i := 1; i < opt.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.worker(i)
		}()
	}
	e.worker(0)
	wg.Wait()
	// Units a stop left parked never ran: retire their frontier-gauge
	// contribution and fold them as the cut.
	e.mu.Lock()
	for _, u := range e.units[e.claimed:] {
		e.opt.em.FrontierDepth.Add(-1)
		u.finished = true
	}
	e.foldLocked()
	e.mu.Unlock()
	return a.finish(st)
}
