// Parallel exploration engine: a worker pool for random mode and a
// deterministic work-stealing scheduler for model-checking mode.
//
// Determinism is the design constraint. Per-execution worlds are fully
// self-contained (machine, trace, checker, heap, RNG), so executions
// can run on any worker; what must not leak is *scheduling*. Random
// mode derives every execution's seed from its index, and a collector
// folds outcomes into the result strictly in index order (workers hand
// batches of consecutive outcomes over in one channel send each).
// Model-check mode runs the DFS as a tree of *work units*: each unit
// owns a sub-range of the decision tree, bounded below by its root
// trail index. A busy unit donates the shallowest still-unexplored
// cut of its own trail to hungry workers (work stealing, inverted:
// the victim carves at its loop top, so the donated range is always a
// whole untouched branch suffix), and the walk at the end folds every
// unit's execution list through the Assembler in canonical depth-first
// order — byte-for-byte the order a single worker visits, truncated at
// the Executions cap. See DESIGN.md, "Work-stealing scheduler".
//
// Graceful degradation preserves both properties: workers consult the
// run's stopper only *between* executions (an execution, once claimed,
// always runs to completion and is collected), so a stopped run's
// collected stream is always a contiguous prefix of the uninterrupted
// run's canonical stream — which is what makes the checkpoint cut
// well-defined and resume deterministic.
package explore

import (
	"fmt"
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

// --- model checking: work-stealing DFS ---

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

// capRec records a domain cap placed on a unit's live trail when a
// child was carved off it: the decision at trail index idx kept the
// values below the carve point and the child took the rest, so the
// unit's in-memory domain was clamped. dom is the decision's *original*
// domain (possibly < 0 for a still-open crash decision) — a checkpoint
// cut at this unit restores it, so an unbounded resume backtrack
// re-derives every donated (and therefore canonically-after-the-cut)
// range. Records are dropped as soon as a backtrack pops past their
// index (passCuts): a later execution may re-create a decision at the
// same index with a fresh domain.
type capRec struct {
	idx, dom int
}

// mcChild is one unit carved off this unit's trail. splitAt is the
// parent's execution count at the moment the parent backtracked past
// the carve index (-1 while pending): every parent execution before it
// is canonically before the child's whole range, every one after is
// canonically after, so the walk inserts the child's stream at
// exactly that position.
type mcChild struct {
	unit    *mcUnit
	cut     int // trail index the child was carved at
	splitAt int // parent exec count when passed; -1 while pending
	passed  bool
}

// mcUnit is one work unit of the model-check DFS: a bounded sub-DFS
// over the decision tree, rooted at trail index `root` (backtracking
// never pops past it). The subtree's root unit has root covering the
// primed phase-0 decision; stolen units root at their carve index.
type mcUnit struct {
	sub    *mcSubtree
	subOrd int // subtree ordinal (= phase-0 crash target)
	root   int // lowest trail index this unit may backtrack to
	// trail is the unit's starting decision trail (the worker's live
	// controller adopts it while the unit runs).
	trail []decision
	// path is the starting trail's value vector — the canonical-order
	// sort key for queue and assembly ordering.
	path []int
	// caps are the domain caps currently clamping the live trail (one
	// per unpassed carved child plus the records inherited from
	// ancestors for indices at or below root). See capRec.
	caps []capRec
	// baseOff is a lower bound on the unit's first execution's
	// subtree-relative canonical index (the parent's collected count at
	// carve time; the parent may still produce more path-earlier
	// executions). The allowance check uses it: an underestimate only
	// ever lets a unit overshoot the budget (trimmed at assembly),
	// never stop short of the canonical first-cap prefix.
	baseOff int
	// stolen marks a carved (donated) unit; classify marks the unit
	// that must run the subtree's first execution (cache probe, next-
	// subtree spawn).
	stolen   bool
	classify bool
	seq      int // enqueue sequence number (queue-order tie break)

	// --- owner-worker state (read by the walk after the scheduler
	// quiesces) ---

	// res is the unit's stream in sub-DFS order (canonical indices are
	// assigned by the walk), its Done flag (the sub-DFS ran to
	// exhaustion), and its diagnostics.
	res      UnitResult
	children []*mcChild
	// popped: a worker dequeued the unit (its trail may have advanced);
	// started: it ran at least one execution; stoppedAt/trailSnap: it
	// observed a stop at its loop top and snapshotted its trail — the
	// checkpoint resume point.
	popped    bool
	started   bool
	stoppedAt bool
	trailSnap []decision
	// dporSnap is the unit's partial-order-reduction registration set as
	// of the stop (pre-seeded with the resumed checkpoint's keys so a
	// unit parked before running re-checkpoints them intact).
	dporSnap []DPORKey
	// resumeDPOR holds a resumed checkpoint's keys to replay into the
	// live set when the unit starts.
	resumeDPOR []DPORKey
}

// mcSubtree is the shared record of one crash-target subtree: the
// classification outcome of its first execution plus the running
// execution total the budget allowance consults. All classification
// fields are written only by the subtree's classify unit's worker and
// read after the scheduler quiesces.
type mcSubtree struct {
	rootUnit *mcUnit
	// nexecs counts executions recorded by all of the subtree's units —
	// the monotone lower bound later subtrees' allowance subtracts.
	nexecs atomic.Int64
	// class is the first execution's classification: a state-cache hit
	// (Pruned: the whole enumeration is skipped) or the key it registered
	// (Keyed), and whether the phase-0 injection fired (subtree
	// ordinal+1 exists and was spawned — restored from the checkpoint on
	// resume so a re-checkpoint still spawns it).
	class UnitClassification
	// started: execution 0 ran (classifying the subtree), in this run
	// or — restored on resume — before the cut. A started subtree's
	// checkpoint must carry its trail; an unstarted one restarts fresh.
	started bool
}

// mcEngine coordinates the parallel model-checking run: a fixed pool of
// workers draining a canonically ordered queue of work units, with
// busy units donating trail cuts to hungry workers.
type mcEngine struct {
	p      Program
	opt    *Options
	st     *stopper
	numPre int

	wg sync.WaitGroup
	// reg is the campaign metrics registry (nil when observability is
	// off); it gates the engine's optional timestamps.
	reg *obs.Registry

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*mcUnit // insertion-sorted by unitBefore
	active  int       // workers currently running a unit
	waiting int       // workers blocked on cond
	seq     int       // enqueue sequence counter
	steals  int       // donated units (Result.Steals)
	subs    []*mcSubtree

	// hungry mirrors (waiting > 0 && pending empty) so busy units can
	// poll the donation trigger without taking the lock.
	hungry atomic.Bool

	// solo runs the engine as a single exported work unit (RunUnit,
	// unit.go): exactly one subtree's root unit, no successor spawning
	// (the dispatch supervisor spawns successors as their own units), and
	// the budget bounds this unit's recorded executions directly instead
	// of the cross-subtree allowance sum.
	solo       bool
	soloBudget int // 0: unbounded
	// onExec and onClassify are the solo unit's progress hooks (worker
	// heartbeats, early classification reporting). Nil in pool runs.
	onExec     func(n int)
	onClassify func(UnitClassification)

	cache *stateCache // nil when disabled

	// --- resume state (from Options.Resume; the Assembler replays the
	// pre-cut cache registrations into re-checkpoints) ---
	haveResume      bool
	baseExecs       int // canonical executions collected before the cut
	startSubtree    int // the cut subtree's ordinal
	resumeStarted   bool
	resumeTrail     []decision
	resumeSpawnNext bool
	resumeDPOR      []DPORKey
}

func newMCEngine(p Program, opt *Options, st *stopper) *mcEngine {
	e := &mcEngine{
		p:      p,
		opt:    opt,
		st:     st,
		numPre: len(p.Phases()) - 1,
		reg:    opt.Obs.Reg(),
	}
	e.cond = sync.NewCond(&e.mu)
	if !opt.NoStateCache && e.numPre > 0 {
		e.cache = newStateCache(obs.CacheInstruments(e.reg))
	}
	if ck := opt.Resume; ck != nil && ck.MC != nil {
		e.haveResume = true
		e.baseExecs = ck.Collected
		e.startSubtree = ck.MC.Subtree
		e.resumeStarted = ck.MC.Started
		e.resumeTrail = trailFromCheckpoint(ck.MC.Trail)
		e.resumeSpawnNext = ck.MC.SpawnNext
		e.resumeDPOR = ck.MC.DPORKeys
		if e.cache != nil {
			for _, ce := range ck.MC.CacheKeys {
				e.cache.prime(cacheKey{image: ce.Image, heap: ce.Heap})
			}
		}
	}
	return e
}

// subtree returns (allocating if needed) the record for ordinal v.
func (e *mcEngine) subtree(v int) *mcSubtree {
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.subs) <= v {
		e.subs = append(e.subs, &mcSubtree{})
	}
	return e.subs[v]
}

// pathLess is canonical DFS path order: lexicographic on decision
// values, a proper prefix before its extensions.
func pathLess(a, b []int) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// unitBefore is the queue's dispatch order: canonical stream order
// (subtree ordinal, then starting-path order), so the earliest pending
// work — the work a stop would cut at — is always dispatched first.
func unitBefore(a, b *mcUnit) bool {
	if a.subOrd != b.subOrd {
		return a.subOrd < b.subOrd
	}
	if pathLess(a.path, b.path) {
		return true
	}
	if pathLess(b.path, a.path) {
		return false
	}
	return a.seq < b.seq
}

// refreshHungry recomputes the lock-free donation trigger; callers hold
// e.mu.
func (e *mcEngine) refreshHungry() {
	e.hungry.Store(e.waiting > 0 && len(e.pending) == 0)
}

// enqueue inserts a unit into the pending queue in canonical order and
// wakes a waiting worker.
func (e *mcEngine) enqueue(u *mcUnit) {
	e.opt.em.FrontierDepth.Add(1)
	e.mu.Lock()
	u.seq = e.seq
	e.seq++
	i := sort.Search(len(e.pending), func(i int) bool { return unitBefore(u, e.pending[i]) })
	e.pending = append(e.pending, nil)
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = u
	if u.stolen {
		e.steals++
	}
	e.refreshHungry()
	e.mu.Unlock()
	e.cond.Broadcast()
}

// spawnRoot enqueues subtree v's root unit. It is called either for the
// start subtree or from subtree v-1's first execution after it
// registered its crash-0 image, which keeps the state-cache
// registration order — and so the hit/miss pattern — deterministic.
func (e *mcEngine) spawnRoot(v int) {
	if e.solo {
		// The classification (sub.class) is still recorded; the
		// dispatch supervisor — not this engine — owns the successor.
		return
	}
	sub := e.subtree(v)
	u := &mcUnit{sub: sub, subOrd: v, classify: true}
	if e.numPre > 0 {
		u.trail = []decision{{val: v, domain: v + 1}}
	}
	u.path = trailValues(u.trail)
	sub.rootUnit = u
	e.enqueue(u)
}

// start seeds the queue with the first subtree's root unit, restoring
// the resume state when continuing a checkpointed run.
func (e *mcEngine) start() {
	v := e.startSubtree
	sub := e.subtree(v)
	u := &mcUnit{sub: sub, subOrd: v, classify: true}
	if e.numPre > 0 {
		u.trail = []decision{{val: v, domain: v + 1}}
	}
	if e.haveResume && e.resumeStarted {
		// Resume the cut subtree mid-DFS: adopt its snapshotted trail and
		// skip the first-execution classification — its cache
		// registration happened before the cut (replayed from the
		// checkpoint) and its successor, if any, is spawned here. The
		// classification outcome itself (started, injectionFired) is
		// restored too, so a second cut re-checkpoints it faithfully.
		// The DPOR registrations ride along the same way (keys are
		// path-deterministic, so they compare across processes), pre-
		// seeding dporSnap so even a unit parked by an instant stop
		// re-checkpoints them.
		u.classify = false
		u.trail = append([]decision(nil), e.resumeTrail...)
		u.resumeDPOR = e.resumeDPOR
		u.dporSnap = e.resumeDPOR
		sub.started = true
		sub.class.InjectionFired = e.resumeSpawnNext
		if e.resumeSpawnNext {
			e.spawnRoot(v + 1)
		}
	}
	u.path = trailValues(u.trail)
	sub.rootUnit = u
	e.enqueue(u)
}

// allowance reports whether unit u may run another execution under the
// global cap. It compares the unit's lower-bound canonical offset
// against the cap minus the executions recorded by all earlier
// subtrees (plus, on resume, the checkpoint's already-collected
// count): since those counts only grow toward their final values and
// baseOff underestimates the unit's true offset, the bound is
// conservative — a unit can overshoot (trimmed at assembly) but never
// stops before producing every execution the canonical first-cap
// prefix needs.
func (e *mcEngine) allowance(u *mcUnit) bool {
	if e.solo {
		// Solo units get an explicit per-unit budget from the dispatch
		// supervisor (a conservative overestimate of the canonical
		// remainder; the supervisor truncates at assembly exactly like
		// this engine's own walk).
		return e.soloBudget <= 0 || len(u.res.Execs) < e.soloBudget
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sum := e.baseExecs
	for i := 0; i < u.subOrd && i < len(e.subs); i++ {
		sum += int(e.subs[i].nexecs.Load())
	}
	return u.baseOff+len(u.res.Execs) < e.opt.Executions-sum
}

// donate carves the shallowest still-unexplored cut off ctl's live
// trail into a new stolen unit and enqueues it. A trail index is
// donatable when it has unexplored sibling values: a closed decision
// with val+1 < domain, or a still-open crash decision that already
// fired (it has deeper trail entries) — an open decision at the trail's
// *last* index is excluded, because its current value has not run yet:
// if that value turns out past the phase's op count, the donated val+1
// would re-enumerate the same "crash after the last operation" run.
//
// The child takes values val+1.. at the cut (its trail keeps the
// original domain there); the donor's live domain is clamped to val+1
// and a capRec preserves the original for checkpoints. Inherited caps
// at or below the cut ride along to the child, so a cut at *it* also
// restores every ancestor domain.
func (e *mcEngine) donate(u *mcUnit, ctl *controller) {
	trail := ctl.trail
	for i := u.root; i < len(trail); i++ {
		d := trail[i]
		if d.val+1 < d.domain || (d.domain < 0 && i < len(trail)-1) {
			child := &mcUnit{
				sub:     u.sub,
				subOrd:  u.subOrd,
				root:    i,
				stolen:  true,
				baseOff: u.baseOff + len(u.res.Execs),
			}
			child.trail = append([]decision(nil), trail[:i+1]...)
			child.trail[i].val = d.val + 1
			child.path = trailValues(child.trail)
			for _, c := range u.caps {
				if c.idx <= i {
					child.caps = append(child.caps, c)
				}
			}
			u.caps = append(u.caps, capRec{idx: i, dom: d.domain})
			ctl.trail[i].domain = d.val + 1
			u.children = append(u.children, &mcChild{unit: child, cut: i, splitAt: -1})
			e.opt.em.Steals.Inc()
			e.opt.fr.Record("explore", "steal", -1,
				fmt.Sprintf("subtree %d carved at trail %d", u.subOrd, i))
			e.enqueue(child)
			return
		}
	}
}

// passCuts records that a backtrack changed trail index pChanged: every
// carved child whose cut index was popped is now "passed" — all of the
// donor's future executions are canonically after the child's range —
// and its splitAt freezes at the donor's current execution count. The
// matching caps are dropped: the live trail no longer holds those
// decisions, and a later execution may re-create them with fresh
// domains a stale record would corrupt.
func (u *mcUnit) passCuts(pChanged int) {
	for _, c := range u.children {
		if !c.passed && c.cut > pChanged {
			c.passed = true
			c.splitAt = len(u.res.Execs)
		}
	}
	kept := u.caps[:0]
	for _, c := range u.caps {
		if c.idx <= pChanged {
			kept = append(kept, c)
		}
	}
	u.caps = kept
}

// markDone finishes an exhausted unit: any still-unpassed children
// (carved at indices the final backtrack never popped past, because the
// search ended) sit canonically after everything the unit ran.
func (u *mcUnit) markDone() {
	for _, c := range u.children {
		if !c.passed {
			c.passed = true
			c.splitAt = len(u.res.Execs)
		}
	}
	u.res.Done = true
}

// backtrackFrom advances the trail to the next unexplored branch
// without ever popping the decision at index root — the unit's floor —
// reporting false once the unit's range is exhausted.
func (c *controller) backtrackFrom(root int) bool {
	for len(c.trail) > root {
		last := &c.trail[len(c.trail)-1]
		if last.domain < 0 || last.val+1 < last.domain {
			last.val++
			c.pos = 0
			return true
		}
		if len(c.trail)-1 == root {
			return false
		}
		c.trail = c.trail[:len(c.trail)-1]
	}
	return false
}

// worker is one scheduler goroutine: pop the canonically earliest
// pending unit, run its bounded sub-DFS, repeat until the queue drains
// with no unit in flight (or a stop parks everything). The stop check
// happens *before* popping, so a stopped run leaves parked units
// parked — the walk's cut then falls on the earliest of them with the
// unit's starting trail intact for the checkpoint.
func (e *mcEngine) worker(id int) {
	defer e.wg.Done()
	// The world is reused across executions *and* units (World.Reset
	// restores the initial state exactly; the reuse property test
	// asserts it); unit trails are swapped in and out of the controller
	// its choosers close over.
	ws := newWorkerState(e.p, e.opt, id+1)
	metered := ws.wm.IdleNanos != nil
	for {
		var idleStart time.Time
		if metered {
			idleStart = time.Now()
		}
		e.mu.Lock()
		waited := false
		for !e.st.stopped() && len(e.pending) == 0 && e.active > 0 {
			e.waiting++
			e.refreshHungry()
			waited = true
			e.cond.Wait()
			e.waiting--
			e.refreshHungry()
		}
		if e.st.stopped() || len(e.pending) == 0 {
			// Stopped, or natural drain (queue empty, nothing in flight
			// that could refill it). A worker that went hungry and is
			// exiting while work still exists was starved by the stop.
			starved := waited && (len(e.pending) > 0 || e.active > 0)
			e.mu.Unlock()
			if metered {
				idle := int64(time.Since(idleStart))
				ws.wm.IdleNanos.Add(idle)
				e.opt.em.WorkerIdle.Add(idle)
			}
			if starved {
				e.opt.em.StealFailures.Inc()
			}
			return
		}
		u := e.pending[0]
		e.pending = e.pending[1:]
		e.active++
		e.refreshHungry()
		e.mu.Unlock()
		if metered {
			idle := int64(time.Since(idleStart))
			ws.wm.IdleNanos.Add(idle)
			e.opt.em.WorkerIdle.Add(idle)
		}
		ws.wm.Dispatches.Inc()
		start := time.Now()
		e.runUnit(u, ws)
		d := int64(time.Since(start))
		u.res.WorkNanos += d
		ws.wm.BusyNanos.Add(d)
		e.opt.em.FrontierDepth.Add(-1)
		e.mu.Lock()
		e.active--
		e.refreshHungry()
		e.mu.Unlock()
		e.cond.Broadcast()
	}
}

// runUnit runs unit u's bounded sub-DFS: every execution of the
// decision tree under u.trail whose backtracks stay at or above
// u.root, enumerated exactly as a single worker would (modulo ranges
// donated away, which the walk splices back in order).
//
// Two reductions ride on the sub-DFS, both unit-local so any worker
// count — and any checkpoint cut — produces the same canonical stream:
//
//   - Prefix snapshots (useSnaps): after every crash the world is
//     snapshotted; after a backtrack the deepest snapshot whose decision
//     prefix is still unchanged is restored and only the suffix phases
//     re-run. Bit-identical results, integer-factor fewer phase
//     executions.
//   - DPOR (dporSeen != nil): a deeper crash state equal to one already
//     enumerated in this unit is pruned — counted like a state-cache
//     prune, contributing no execution. The check is skipped while the
//     trail is still replaying the previous execution's prefix
//     (ctl.pos <= pChanged): an unchanged prefix trivially reproduces
//     its own registered states and must not prune its own siblings.
//     DPOR registration sets are subtree-scoped, so a DPOR-active root
//     unit never donates (a carved child would split the set and change
//     which executions are pruned); such programs parallelize across
//     subtrees only.
//
// Both rest on the Program contract: a snapshot resume re-enters a
// later phase without re-running earlier ones, and DPOR's
// equal-state-equal-continuation argument needs all cross-phase state
// inside the World (or identical in every execution).
func (e *mcEngine) runUnit(u *mcUnit, ws *workerState) {
	sub := u.sub
	clear(ws.reported)
	ctl := ws.ctl
	ctl.trail = u.trail
	ctl.pos = 0
	u.popped = true
	first := u.classify
	// pChanged is the trail index of the decision the last backtrack
	// changed: decisions at indices <= pChanged replay the previous
	// execution's prefix unchanged. -1 before a fresh subtree's first
	// execution (everything is new); a carved or resumed trail always
	// sits just after a backtrack, so its whole prefix counts.
	pChanged := -1
	if !first {
		pChanged = len(ctl.trail) - 1
	}
	useSnaps := !e.opt.DisableSnapshots && !e.opt.FreshWorlds
	var dporSeen map[dporKey]struct{}
	if !e.opt.DisableDPOR && e.numPre > 1 && !u.stolen {
		dporSeen = make(map[dporKey]struct{})
		for _, k := range u.resumeDPOR {
			dporSeen[dporKey{phase: k.Phase, image: k.Image, heap: k.Heap, ops: k.Ops, checker: k.Checker, trace: k.Trace}] = struct{}{}
		}
	}
	// Donation gating: DPOR-active units keep their whole range (see
	// above); armed chaos injection disables demand-driven donation
	// (unit-local fault ordinals must not depend on scheduler timing)
	// unless ForceSteals makes the unit tree trail-driven.
	canDonate := dporSeen == nil && (e.opt.ForceSteals || e.opt.InjectFault == nil)
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
			// its first crash: record whether the injection fired (so
			// the next subtree exists), then consult the state cache —
			// every execution of the subtree shares the same phase-0
			// prefix and so the same crash-0 image.
			keep := true
			if e.cache != nil {
				ps := e.opt.tr.Now()
				k := stateKey(ws.w)
				hit := e.cache.lookupOrRegister(k)
				e.opt.tr.CompleteSince(ws.tid, "statecache", "cache-probe", ps, -1)
				if hit {
					sub.class.Pruned = true
					keep = false
				} else {
					sub.class.Keyed = true
					sub.class.Key = CacheEntry{Image: k.image, Heap: k.heap}
				}
			}
			if fired && e.numPre > 0 {
				sub.class.InjectionFired = true
				e.spawnRoot(u.subOrd + 1)
			}
			if e.onClassify != nil {
				e.onClassify(sub.class)
			}
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
			u.stoppedAt = true
			u.trailSnap = append([]decision(nil), ctl.trail...)
			if dporSeen != nil {
				u.dporSnap = dporKeysOf(dporSeen)
			}
			break
		}
		// Donation before the allowance check: the carve decision must
		// depend only on the trail (and, in demand mode, on worker
		// hunger) — never on the cross-subtree execution totals the
		// allowance reads, which near a binding budget vary with
		// scheduling.
		if canDonate && (e.opt.ForceSteals || e.hungry.Load()) {
			e.donate(u, ctl)
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
		case ws.w == nil || e.opt.FreshWorlds:
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
		if first {
			sub.started = true
		}
		first = false
		u.started = true
		if pruned && !dporHit {
			// The whole subtree is a duplicate of one already explored;
			// it contributes no executions.
			u.markDone()
			break
		}
		if dporHit {
			// A deeper crash state already enumerated in this unit: the
			// continuation is skipped (counted in Pruned, no execution
			// recorded), the sub-DFS walks on.
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
			sub.nexecs.Add(1)
			if e.onExec != nil {
				e.onExec(len(u.res.Execs))
			}
		}
		if !ctl.backtrackFrom(u.root) {
			u.markDone()
			break
		}
		pChanged = len(ctl.trail) - 1
		u.passCuts(pChanged)
		snaps = pruneSnaps(snaps, pChanged)
	}
	// Snapshots never outlive the unit (the world is reused by the next
	// one).
	pruneSnaps(snaps, -1)
}

// walk folds unit u into the assembly: its own executions interleaved
// with its passed children's streams at their split points — which is
// exactly canonical order (every parent execution before splitAt
// precedes the child's whole range, every one after follows it;
// children sort by splitAt, then path). Unpassed children are always
// canonically after their donor's remaining work, so they are walked
// last, after the donor's own cut (if any) is recorded.
func (e *mcEngine) walk(a *Assembler, u *mcUnit) {
	a.addStats(&u.res)
	var passed []*mcChild
	for _, c := range u.children {
		if c.passed {
			passed = append(passed, c)
		}
	}
	sort.SliceStable(passed, func(i, j int) bool {
		if passed[i].splitAt != passed[j].splitAt {
			return passed[i].splitAt < passed[j].splitAt
		}
		return pathLess(passed[i].unit.path, passed[j].unit.path)
	})
	collected := true
	pi := 0
	for ei := 0; ei <= len(u.res.Execs); ei++ {
		for pi < len(passed) && passed[pi].splitAt == ei {
			e.walk(a, passed[pi].unit)
			pi++
		}
		if ei < len(u.res.Execs) && !a.collect(&u.res.Execs[ei]) {
			collected = false
		}
	}
	a.endUnit(e.resumePoint(u), u.res.Done, collected)
	for _, c := range u.children {
		if !c.passed {
			e.walk(a, c.unit)
		}
	}
}

// resumePoint is unit u's checkpoint cut, or nil when it has none: it
// finished, or it bowed out on its allowance mid-DFS (budget
// truncation; re-run with a larger budget instead). A cut position
// lines up with a trail when u observed the stop at its loop top
// (trailSnap) or never ran (its starting trail). The trail is persisted
// with every live domain cap undone (capRec.dom): the donated ranges
// those caps carved off are all canonically after the cut, so restoring
// the original domains makes the resumed run's unbounded backtrack
// re-derive exactly the dropped remainder.
func (e *mcEngine) resumePoint(u *mcUnit) *MCCheckpoint {
	if u.res.Done || (u.popped && !u.stoppedAt) {
		return nil
	}
	mc := &MCCheckpoint{
		Subtree: u.subOrd,
		// A stolen unit always carries a trail (its carved prefix); a
		// subtree root only once its first execution ran.
		Started:   u.started || !u.classify,
		SpawnNext: u.sub.class.InjectionFired,
	}
	if mc.Started {
		src := u.trail
		if u.stoppedAt {
			src = u.trailSnap
		}
		mc.Trail = trailToCheckpoint(src)
		for _, c := range u.caps {
			if c.idx < len(mc.Trail) {
				mc.Trail[c.idx].Domain = c.dom
			}
		}
		mc.DPORKeys = u.dporSnap
	}
	return mc
}

// run executes the engine and folds the unit trees through the
// Assembler: each subtree's classification, then its units in canonical
// depth-first order, so collector callbacks (Progress) see strictly
// increasing indices no matter how units were scheduled or stolen.
// Collection stops at the cut — the first unit with uncollected work;
// everything canonically after it is dropped and re-derived on resume.
func (e *mcEngine) run() *Result {
	a := newAssembler(e.p.Name(), e.opt)
	e.opt.known = a.isKnown
	e.start()
	for i := 0; i < e.opt.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	e.wg.Wait()
	// Units a stop left parked never ran; retire their frontier-gauge
	// contribution here so the gauge always returns to zero.
	for range e.pending {
		e.opt.em.FrontierDepth.Add(-1)
	}
	for _, sub := range e.subs[e.startSubtree:] {
		a.classify(sub.class)
		e.walk(a, sub.rootUnit)
	}
	res := a.finish(e.st)
	res.Steals = e.steals
	return res
}
