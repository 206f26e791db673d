// The supervisor: unit scheduling, leases, redelivery, degradation,
// and the ordered merge.
package dispatch

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
)

// WorkerBinEnv overrides worker-binary discovery (highest precedence).
const WorkerBinEnv = "PSAN_WORKER_BIN"

// Options configures a supervised campaign.
type Options struct {
	// Explore carries the campaign knobs, interpreted as in explore.Run:
	// Workers is the worker-process count, Executions/Seed/Model
	// define the canonical stream, Resume continues a v3
	// checkpoint, Deadline/Context stop the campaign. Obs instruments
	// the supervisor (dispatch.* bundle) and receives the fleet
	// telemetry: worker processes run matching sinks and ship metric
	// deltas, span tails, and flight events back on heartbeats and
	// results. Deltas are committed per successful delivery attempt and
	// rolled back on failure, so on a campaign with no poisoned units
	// the merged explore.*/pmem.*/persist.* counters equal a clean
	// in-process run's to the bit (gauges are high-water advisory).
	Explore explore.Options
	// Program is the compiled program. It always runs in-process for
	// degraded mode; worker processes reload it from ProgramPath (or,
	// in tests, resolve it by name).
	Program explore.Program
	// ProgramPath is the source path shipped to worker processes.
	ProgramPath string
	// WorkerBin locates the psan-worker binary. Empty means discover:
	// $PSAN_WORKER_BIN, then psan-worker next to this executable, then
	// $PATH. Discovery failure is not an error — the campaign runs
	// degraded (in-process).
	WorkerBin string
	// WorkerArgs are extra argv for the worker binary (the test harness
	// re-execs the test binary into worker mode this way).
	WorkerArgs []string
	// WorkerEnv is extra environment for worker processes (appended to
	// this process's).
	WorkerEnv []string
	// Lease is the heartbeat deadline: a delivered unit whose worker
	// sends nothing for this long is presumed hung, its worker killed,
	// and the unit redelivered. Must exceed the longest single
	// execution. Default 10s.
	Lease time.Duration
	// Retry is the redelivery schedule.
	Retry RetryPolicy

	// inProcess forces degraded mode: units run in this process (no
	// isolation, no kill resilience — but bit-identical results; test
	// hook).
	inProcess bool
	// unitExecs sizes random-mode units (executions per unit; test
	// hook). 0: an eighth of the per-worker share, at least 16.
	unitExecs int
	// spawnFailLimit is how many consecutive spawn failures a slot
	// tolerates before latching degraded mode (test hook; 0 = 3).
	spawnFailLimit int
	// haltAfterUnits, when >0, stops the campaign like a deadline once
	// that many units have merged — the supervisor-restart tests cut
	// campaigns at deterministic points with it.
	haltAfterUnits int
}

// unitState is the lease state machine:
//
//	pending --deliver--> leased --result--> done
//	   ^                    |
//	   +----backoff---------+--retries exhausted--> poisoned
type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitDone
	unitPoisoned
)

// unit is one schedulable work unit and its delivery history.
type unit struct {
	id        int
	spec      explore.UnitSpec
	state     unitState
	attempts  int       // deliveries so far
	notBefore time.Time // backoff release (pending units)
	result    *explore.UnitResult

	classified bool // mc: subtree classification already applied

	// failure provenance (latest attempt)
	lastErr    string
	exitStatus string
	stderrTail string
}

// key identifies the unit for backoff jitter derivation.
func (u *unit) key() string {
	if u.spec.Random != nil {
		return fmt.Sprintf("random:%d-%d", u.spec.Random.Lo, u.spec.Random.Hi)
	}
	return fmt.Sprintf("mc:%d", u.spec.MC.Subtree)
}

type supervisor struct {
	opt   Options
	hello helloMsg
	bin   string // "" => degraded from the start
	dm    obs.DispatchMetrics

	// Fleet-telemetry sinks (all nil-safe): the supervisor's own
	// registry/tracer/flight recorder, which worker shipments merge
	// into.
	reg *obs.Registry
	tr  *obs.Tracer
	fr  *obs.FlightRecorder

	mu   sync.Mutex
	cond *sync.Cond

	units  []*unit
	mcDone bool // mc: the subtree chain is closed
	mcKeys []explore.CacheEntry

	draining   bool // stop delivering (stop, poison, or completion)
	stopReason string
	degraded   bool
	poisoned   []*unit

	redeliveries int
	restarts     int
	mergedUnits  int

	procs map[int]*proc // live proc per slot, for kill-on-stop
	start time.Time     // campaign start, for Result.Elapsed
}

// Run executes the campaign under process isolation and returns the
// merged Result — bit-identical to explore.Run over the same options.
func Run(opt Options) *explore.Result {
	return newSupervisor(opt).run()
}

// newSupervisor applies defaults, resolves the worker binary, and seeds
// the unit set.
func newSupervisor(opt Options) *supervisor {
	if opt.Explore.Executions == 0 {
		opt.Explore.Executions = 1000
	}
	if opt.Explore.Workers <= 0 {
		opt.Explore.Workers = 1
	}
	if opt.Lease <= 0 {
		opt.Lease = 10 * time.Second
	}
	if opt.spawnFailLimit <= 0 {
		opt.spawnFailLimit = 3
	}
	s := &supervisor{
		opt: opt,
		dm:  obs.DispatchInstruments(opt.Explore.Obs.Reg()),
		reg: opt.Explore.Obs.Reg(),
		tr:  opt.Explore.Obs.Trace(),
		fr:  opt.Explore.Obs.Recorder(),
		hello: helloMsg{
			Type:        "hello",
			ProgramName: opt.Program.Name(),
			ProgramPath: opt.ProgramPath,
			Opts:        optionsToWire(opt.Explore),
		},
		procs: make(map[int]*proc),
	}
	s.hello.Telemetry = telemetrySpec{
		Metrics: s.reg != nil,
		Trace:   s.tr != nil,
		Flight:  s.fr != nil,
	}
	s.cond = sync.NewCond(&s.mu)
	s.start = time.Now()
	if !opt.inProcess {
		s.bin = resolveWorkerBin(opt.WorkerBin)
	}
	if s.bin == "" {
		s.degraded = true
		s.dm.Degraded.Inc()
		if !opt.inProcess {
			s.fr.Record("dispatch", "degraded", -1, "no worker binary found")
		}
	}
	s.seedUnits()
	return s
}

// run drives the campaign: stop watcher, one goroutine per worker slot,
// ordered merge.
func (s *supervisor) run() *explore.Result {
	opt := s.opt

	// External stops: context cancellation and the wall-clock deadline.
	ctx := opt.Explore.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var cancel context.CancelFunc
	reasonIs := "canceled"
	if opt.Explore.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Explore.Deadline)
		defer cancel()
	}
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded && opt.Explore.Deadline > 0 {
				reasonIs = "deadline"
			}
			s.stop(reasonIs)
		case <-stopWatch:
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < opt.Explore.Workers; i++ {
		wg.Add(1)
		go s.slot(i, &wg)
	}
	wg.Wait()
	close(stopWatch)

	return s.merge()
}

// seedUnits creates the initial unit set: the whole range partition in
// random mode, the first (or resumed-cut) subtree in model-check mode.
func (s *supervisor) seedUnits() {
	opt := &s.opt.Explore
	if opt.Mode == explore.Random {
		lo := 0
		if ck := opt.Resume; ck != nil {
			lo = ck.Collected
		}
		chunk := s.opt.unitExecs
		if chunk <= 0 {
			chunk = (opt.Executions - lo) / (opt.Workers * 8)
			if chunk < 16 {
				chunk = 16
			}
		}
		for ; lo < opt.Executions; lo += chunk {
			hi := lo + chunk
			if hi > opt.Executions {
				hi = opt.Executions
			}
			s.addUnit(explore.UnitSpec{Random: &explore.RandomRange{Lo: lo, Hi: hi}})
		}
		return
	}
	mc := &explore.MCCheckpoint{}
	if ck := opt.Resume; ck != nil && ck.MC != nil {
		mc = &explore.MCCheckpoint{
			Subtree:   ck.MC.Subtree,
			Started:   ck.MC.Started,
			Trail:     ck.MC.Trail,
			SpawnNext: ck.MC.SpawnNext,
			DPORKeys:  ck.MC.DPORKeys,
			CacheKeys: append([]explore.CacheEntry(nil), ck.MC.CacheKeys...),
		}
		s.mcKeys = append(s.mcKeys, ck.MC.CacheKeys...)
	}
	u := s.addUnit(explore.UnitSpec{MC: mc})
	if mc.Started {
		// A resumed mid-subtree cut classified before the checkpoint;
		// its successor (if any) is spawned here, like the engine's
		// resume path.
		u.classified = true
		if mc.SpawnNext {
			s.addUnit(explore.UnitSpec{MC: &explore.MCCheckpoint{
				Subtree:   mc.Subtree + 1,
				CacheKeys: append([]explore.CacheEntry(nil), s.mcKeys...),
			}})
		} else {
			s.mcDone = true
		}
	}
}

// addUnit appends a unit in canonical position. Callers hold s.mu or
// run before the slots start.
func (s *supervisor) addUnit(spec explore.UnitSpec) *unit {
	u := &unit{id: len(s.units), spec: spec}
	s.units = append(s.units, u)
	return u
}

// budgetLocked computes a model-check unit's execution budget: the cap
// minus every earlier unit's known executions. Like the engine's
// allowance it is a conservative overestimate (in-flight earlier units
// count 0), so a unit may overshoot — the merge truncates, exactly like
// the engine's assembly — but can never stop short of the canonical
// need. Returns false when the budget is provably empty.
func (s *supervisor) budgetLocked(u *unit) (int, bool) {
	sum := 0
	if ck := s.opt.Explore.Resume; ck != nil {
		sum = ck.Collected
	}
	for _, v := range s.units {
		if v.id >= u.id {
			break
		}
		if v.state == unitDone {
			sum += len(v.result.Execs)
		}
	}
	rem := s.opt.Explore.Executions - sum
	if rem <= 0 {
		return 0, false
	}
	return rem, true
}

// next blocks until a unit is deliverable (lowest id first, honoring
// backoff release times) and leases it; nil means the campaign is over
// for this slot (drained, stopped, or every unit is terminal).
func (s *supervisor) next() *unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		live := false
		var ready *unit
		var soonest time.Time
		now := time.Now()
		for _, u := range s.units {
			switch u.state {
			case unitLeased:
				live = true
			case unitPending:
				live = true
				if !u.notBefore.After(now) {
					ready = u
				} else if soonest.IsZero() || u.notBefore.Before(soonest) {
					soonest = u.notBefore
				}
			}
			if ready != nil {
				break
			}
		}
		if ready != nil {
			if s.opt.Explore.Mode == explore.ModelCheck {
				b, ok := s.budgetLocked(ready)
				if !ok {
					// The cap is exhausted before this unit: it can never
					// contribute collected executions. Leave it pending —
					// the merge records it as the cut, exactly like an
					// engine unit that bowed out on its allowance.
					s.drainLocked()
					return nil
				}
				ready.spec.Budget = b
			}
			ready.state = unitLeased
			ready.attempts++
			s.dm.LeasesGranted.Inc()
			s.dm.UnitsDispatched.Inc()
			return ready
		}
		if !live && (s.opt.Explore.Mode == explore.Random || s.mcDone) {
			// Frontier drained.
			s.drainLocked()
			return nil
		}
		if !soonest.IsZero() {
			// Wake ourselves when the earliest backoff releases.
			d := time.Until(soonest)
			time.AfterFunc(d, func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
		}
		s.cond.Wait()
	}
}

// drainLocked latches the campaign-over state and wakes every slot.
func (s *supervisor) drainLocked() {
	s.draining = true
	s.cond.Broadcast()
}

// stop is the external-stop path (deadline, cancellation): stop
// delivering, kill every live worker (their units return to pending
// and become the merge cut).
func (s *supervisor) stop(reason string) {
	s.mu.Lock()
	if s.stopReason == "" {
		s.stopReason = reason
		s.fr.Record("dispatch", "stop", -1, reason)
	}
	s.drainLocked()
	procs := make([]*proc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// classify applies a subtree classification: record the cache
// registration and extend the unit chain. Idempotent per unit — a
// redelivered unit re-classifies identically and must not double-
// register or spawn a duplicate successor.
func (s *supervisor) classify(u *unit, c explore.UnitClassification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.classifyLocked(u, c)
}

func (s *supervisor) classifyLocked(u *unit, c explore.UnitClassification) {
	if u.classified || s.opt.Explore.Mode != explore.ModelCheck {
		return
	}
	u.classified = true
	if c.Keyed {
		s.mcKeys = append(s.mcKeys, c.Key)
	}
	if u.id == len(s.units)-1 {
		if c.InjectionFired {
			s.addUnit(explore.UnitSpec{MC: &explore.MCCheckpoint{
				Subtree:   u.spec.MC.Subtree + 1,
				CacheKeys: append([]explore.CacheEntry(nil), s.mcKeys...),
			}})
			s.cond.Broadcast()
		} else {
			s.mcDone = true
			s.cond.Broadcast()
		}
	}
}

// complete merges bookkeeping for a finished unit.
func (s *supervisor) complete(u *unit, ur *explore.UnitResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.state != unitLeased {
		return
	}
	u.state = unitDone
	u.result = ur
	s.mergedUnits++
	s.dm.UnitsMerged.Inc()
	if ur.Classified {
		// Fallback for a lost early-classification message; no-op if the
		// classify callback already ran.
		s.classifyLocked(u, ur.Class)
	}
	if s.opt.haltAfterUnits > 0 && s.mergedUnits >= s.opt.haltAfterUnits && s.stopReason == "" {
		s.stopReason = "halted"
		s.drainLocked()
	}
	s.cond.Broadcast()
}

// fail records a failed delivery and schedules redelivery or poison.
func (s *supervisor) fail(u *unit, pe *procError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.state != unitLeased {
		return // the stop path already reclaimed it
	}
	u.lastErr = pe.Error()
	u.exitStatus = pe.exitStatus
	u.stderrTail = pe.stderrTail
	if pe.reason == "lease-expired" {
		s.dm.LeasesExpired.Inc()
		s.fr.Record("dispatch", "lease-expired", u.id, pe.detail)
	}
	if s.draining {
		// Killed by the stop path: back to pending so the merge cuts
		// here; no redelivery, no retry-budget charge.
		u.state = unitPending
		return
	}
	at, poison := s.opt.Retry.Next(u.key(), u.attempts, time.Now())
	if poison || pe.permanent {
		u.state = unitPoisoned
		s.poisoned = append(s.poisoned, u)
		s.dm.PoisonUnits.Inc()
		s.fr.Record("dispatch", "poison", u.id,
			fmt.Sprintf("after %d attempts: %s", u.attempts, pe.Error()))
		// Coverage is lost at this unit: everything canonically after it
		// can never be collected, so stop dispatching and drain.
		s.drainLocked()
		return
	}
	u.state = unitPending
	u.notBefore = at
	s.redeliveries++
	s.dm.Redeliveries.Inc()
	s.dm.BackoffNanos.Add(int64(time.Until(at)))
	s.fr.Record("dispatch", "redeliver", u.id,
		fmt.Sprintf("attempt %d failed: %s", u.attempts, pe.Error()))
	s.cond.Broadcast()
}

// runInProcess is degraded mode's delivery: the same RunUnit the worker
// binary runs, same spec, same hooks — same bytes.
func (s *supervisor) runInProcess(u *unit) {
	ur, err := explore.RunUnit(s.opt.Program, s.opt.Explore, u.spec, explore.UnitHooks{
		OnClassify: func(c explore.UnitClassification) { s.classify(u, c) },
	})
	if err != nil {
		s.fail(u, &procError{reason: "fatal", detail: err.Error(), permanent: true})
		return
	}
	s.complete(u, ur)
}

// slot is one worker slot's loop: lease units, deliver them to this
// slot's worker process (spawning or respawning as needed), and fold
// outcomes back. Repeated spawn failure latches campaign-wide degraded
// mode instead of failing the run.
func (s *supervisor) slot(i int, wg *sync.WaitGroup) {
	defer wg.Done()
	var pr *proc
	everSpawned := false
	spawnFails := 0
	defer func() {
		if pr != nil {
			pr.kill()
			s.mu.Lock()
			delete(s.procs, i)
			s.mu.Unlock()
		}
	}()
	for {
		u := s.next()
		if u == nil {
			return
		}
		s.mu.Lock()
		degraded := s.degraded
		s.mu.Unlock()
		if degraded {
			s.runInProcess(u)
			continue
		}
		if pr == nil {
			p, err := spawn(s.bin, s.opt.WorkerArgs, append(os.Environ(), s.opt.WorkerEnv...), s.hello, s.opt.Lease)
			if err != nil {
				spawnFails++
				s.mu.Lock()
				// Spawn trouble is not the unit's fault: back to pending
				// with its attempt uncharged.
				u.state = unitPending
				u.attempts--
				if spawnFails >= s.opt.spawnFailLimit {
					s.degraded = true
					s.dm.Degraded.Inc()
					s.fr.Record("dispatch", "degraded", -1,
						fmt.Sprintf("slot %d: %d consecutive spawn failures", i, spawnFails))
				}
				s.cond.Broadcast()
				s.mu.Unlock()
				continue
			}
			spawnFails = 0
			pr = p
			s.mu.Lock()
			if everSpawned {
				s.restarts++
				s.dm.WorkerRestarts.Inc()
				s.fr.Record("dispatch", "worker-restart", -1,
					fmt.Sprintf("slot %d respawned as pid %d", i, p.pid))
			} else {
				s.fr.Record("dispatch", "spawn", -1,
					fmt.Sprintf("slot %d spawned pid %d", i, p.pid))
			}
			s.procs[i] = pr
			s.dm.WorkersLive.Add(1)
			s.mu.Unlock()
			everSpawned = true
			s.tr.NameProcess(p.pid, fmt.Sprintf("psan-worker %d (slot %d)", p.pid, i))
			s.tr.NameThreadFor(p.pid, 1, "exec")
			s.tr.NameThread(i+1, fmt.Sprintf("slot-%d", i))
		}
		um := unitMsg{
			Type:    "unit",
			ID:      u.id,
			Attempt: u.attempts - 1,
			LeaseMS: int64(s.opt.Lease / time.Millisecond),
			Spec:    u.spec,
			Cut:     s.cutFor(u),
		}
		// Telemetry shipped during this delivery attempt is applied to
		// the supervisor sinks as it arrives and accumulated; a failed
		// attempt rolls its metric deltas back, so the registry only ever
		// retains exactly one successful run per merged unit. Spans and
		// flight events are timeline records of work that really executed
		// — they stay.
		var acc obs.Snapshot
		applied := false
		onTel := func(m workerMsg) {
			if m.Metrics != nil {
				s.reg.ApplyDelta(*m.Metrics, 1)
				acc.Accumulate(*m.Metrics)
				applied = true
			}
			if len(m.Spans) > 0 {
				s.tr.Ingest(m.Spans, pr.traceStart)
			}
			s.fr.Ingest(m.Flight)
		}
		start := time.Now()
		ur, err := pr.deliver(um, s.opt.Lease, func(c explore.UnitClassification) { s.classify(u, c) }, onTel)
		s.tr.Complete(i+1, "dispatch", fmt.Sprintf("unit %d attempt %d", u.id, um.Attempt),
			start, time.Since(start), -1)
		if err != nil {
			// deliver killed the proc (or found it dead) on every error.
			if applied {
				s.reg.ApplyDelta(acc, -1)
			}
			s.mu.Lock()
			delete(s.procs, i)
			s.dm.WorkersLive.Add(-1)
			s.mu.Unlock()
			pr = nil
			s.fail(u, err.(*procError))
			continue
		}
		s.dm.UnitNanos.Observe(int64(time.Since(start)))
		s.complete(u, ur)
	}
}

// cutFor shapes the unit as a checkpoint for worker-side validation.
// DPOR is explore's reduction predicate as every caller outside the
// explore package sees it: on iff the window is unbounded.
func (s *supervisor) cutFor(u *unit) explore.Checkpoint {
	ck := explore.Checkpoint{
		Version: explore.CheckpointVersion,
		Program: s.opt.Program.Name(),
		Mode:    s.opt.Explore.Mode.String(),
		Seed:    s.opt.Explore.Seed,
		Model:   s.opt.Explore.Model.Name,
		Window:  s.opt.Explore.Model.Window,
		DPOR:    s.opt.Explore.Model.Window == 0,
		MC:      u.spec.MC,
	}
	return ck
}

// merge assembles every unit stream in canonical order and decorates
// the Result with the supervision record.
func (s *supervisor) merge() *explore.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	asm := explore.NewAssembler(s.opt.Program.Name(), s.opt.Explore)
	for _, u := range s.units {
		if u.state == unitDone {
			asm.Add(u.spec, u.result)
		} else {
			asm.AddLost(u.spec)
		}
	}
	reason := s.stopReason
	if reason == "" && len(s.poisoned) > 0 {
		reason = "poison"
	}
	res := asm.Finish(reason)
	res.Elapsed = time.Since(s.start) // the assembler only saw the merge
	res.Workers = s.opt.Explore.Workers
	res.Isolated = !s.degraded
	res.Degraded = s.degraded && !s.opt.inProcess
	baseRedeliveries, baseRestarts := 0, 0
	var priorPoison []explore.PoisonRecord
	if ck := s.opt.Explore.Resume; ck != nil && ck.Dispatch != nil {
		baseRedeliveries = ck.Dispatch.Redeliveries
		baseRestarts = ck.Dispatch.WorkerRestarts
		priorPoison = ck.Dispatch.Poison
	}
	res.Redeliveries = baseRedeliveries + s.redeliveries
	res.WorkerRestarts = baseRestarts + s.restarts
	for _, u := range s.poisoned {
		p := &explore.PoisonUnit{
			ID:         u.id,
			Kind:       u.spec.Kind(),
			Attempts:   u.attempts,
			LastError:  u.lastErr,
			ExitStatus: u.exitStatus,
			StderrTail: u.stderrTail,
		}
		if u.spec.Random != nil {
			p.Lo, p.Hi = u.spec.Random.Lo, u.spec.Random.Hi
		} else {
			p.Subtree = u.spec.MC.Subtree
			for _, te := range u.spec.MC.Trail {
				p.TrailPrefix = append(p.TrailPrefix, te.Val)
			}
		}
		res.PoisonUnits = append(res.PoisonUnits, p)
	}
	if res.Checkpoint != nil {
		d := &explore.DispatchCheckpoint{
			Redeliveries:   res.Redeliveries,
			WorkerRestarts: res.WorkerRestarts,
			Poison:         append([]explore.PoisonRecord(nil), priorPoison...),
		}
		for _, p := range res.PoisonUnits {
			d.Poison = append(d.Poison, explore.PoisonRecord{
				Kind: p.Kind, Subtree: p.Subtree, Lo: p.Lo, Hi: p.Hi,
				Attempts: p.Attempts, LastErr: p.LastError,
			})
		}
		res.Checkpoint.Dispatch = d
	}
	return res
}

// resolveWorkerBin finds the psan-worker binary: explicit option, the
// PSAN_WORKER_BIN environment override, a psan-worker sitting next to
// this executable, then $PATH. Empty means not found (degraded mode).
func resolveWorkerBin(explicit string) string {
	if explicit != "" {
		return explicit
	}
	if env := os.Getenv(WorkerBinEnv); env != "" {
		return env
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "psan-worker")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand
		}
	}
	if p, err := exec.LookPath("psan-worker"); err == nil {
		return p
	}
	return ""
}
