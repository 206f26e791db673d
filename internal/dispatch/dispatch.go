// The supervisor: leases, redelivery, degradation and fleet telemetry
// over worker processes. The units themselves — their canonical order,
// budgets, classification and ordered fold — are explore.Scheduler's.
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
	// Workers is the worker-process count, resolved as explore.Run
	// resolves its goroutine count (Options.Width: 0 means one per
	// CPU), Executions/Seed/Model define the canonical stream, Resume continues a v3
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

// supervisor drives an explore.Scheduler from worker slots, one
// goroutine (and worker process) each. Its lease machine layers on the
// scheduler's unit states: a claimed unit is leased to a slot's process;
// a failed delivery backs off on that slot and releases the unit for
// redelivery, or quarantines it as poison.
type supervisor struct {
	opt   Options
	hello helloMsg
	bin   string // "" => degraded from the start
	dm    obs.DispatchMetrics
	sched *explore.Scheduler

	// Fleet-telemetry sinks (all nil-safe): the supervisor's own
	// registry/tracer/flight recorder, which worker shipments merge
	// into.
	reg *obs.Registry
	tr  *obs.Tracer
	fr  *obs.FlightRecorder

	// halt is closed once delivery stops (stop, poison, or halt); slots
	// backing off wake on it.
	halt     chan struct{}
	haltOnce sync.Once

	mu         sync.Mutex
	attempts   map[int]int // deliveries so far, by unit ID
	stopReason string
	degraded   bool
	poisoned   []*explore.PoisonUnit

	redeliveries int
	restarts     int
	mergedUnits  int

	procs map[int]*proc // live proc per slot, for kill-on-stop
}

// Run executes the campaign under process isolation and returns the
// merged Result — bit-identical to explore.Run over the same options.
func Run(opt Options) *explore.Result {
	return newSupervisor(opt).run()
}

// newSupervisor applies defaults, resolves the worker binary, and
// starts the unit chain.
func newSupervisor(opt Options) *supervisor {
	if opt.Explore.Executions == 0 {
		opt.Explore.Executions = 1000
	}
	opt.Explore.Workers = opt.Explore.Width()
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
		sched:    explore.NewScheduler(opt.Program.Name(), opt.Explore, rangeSize(opt)),
		halt:     make(chan struct{}),
		attempts: make(map[int]int),
		procs:    make(map[int]*proc),
	}
	s.hello.Telemetry = telemetrySpec{
		Metrics: s.reg != nil,
		Trace:   s.tr != nil,
		Flight:  s.fr != nil,
	}
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
	return s
}

// rangeSize sizes random-mode units: an eighth of each worker's share
// of the stream left to run, at least 16 executions.
func rangeSize(opt Options) int {
	if opt.unitExecs > 0 {
		return opt.unitExecs
	}
	rem := opt.Explore.Executions
	if ck := opt.Explore.Resume; ck != nil {
		rem -= ck.Collected
	}
	return max(rem/(opt.Explore.Workers*8), 16)
}

// run drives the campaign: stop watcher, one goroutine per worker slot,
// and the supervision record on the folded Result.
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

	return s.finish()
}

// drain stops delivery: no unit is claimed from now on, and slots
// backing off wake. Units still leased finish or are lost.
func (s *supervisor) drain() {
	s.haltOnce.Do(func() {
		close(s.halt)
		s.sched.Stop()
	})
}

// stop is the external-stop path (deadline, cancellation): stop
// delivering, kill every live worker (their units are lost and become
// the cut).
func (s *supervisor) stop(reason string) {
	s.mu.Lock()
	if s.stopReason == "" {
		s.stopReason = reason
		s.fr.Record("dispatch", "stop", -1, reason)
	}
	procs := make([]*proc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	s.drain()
	for _, p := range procs {
		p.kill()
	}
}

// lease grants unit u to a slot: one more delivery attempt. It reports
// the attempt's 0-based number and whether the campaign runs degraded.
func (s *supervisor) lease(u *explore.Unit) (attempt int, degraded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempts[u.ID]++
	s.dm.LeasesGranted.Inc()
	s.dm.UnitsDispatched.Inc()
	return s.attempts[u.ID] - 1, s.degraded
}

// complete hands a delivered unit's stream to the scheduler, which
// folds it in canonical order.
func (s *supervisor) complete(u *explore.Unit, ur *explore.UnitResult) {
	s.mu.Lock()
	delete(s.attempts, u.ID)
	s.mergedUnits++
	s.dm.UnitsMerged.Inc()
	halt := s.opt.haltAfterUnits > 0 && s.mergedUnits >= s.opt.haltAfterUnits && s.stopReason == ""
	if halt {
		s.stopReason = "halted"
	}
	s.mu.Unlock()
	s.sched.Finish(u, ur)
	if halt {
		s.drain()
	}
}

// fail records a failed delivery of unit u and, unless delivery has
// stopped, quarantines it as poison or backs off on this slot until its
// release time and returns it to the scheduler for redelivery.
func (s *supervisor) fail(u *explore.Unit, pe *procError) {
	s.mu.Lock()
	if pe.reason == "lease-expired" {
		s.dm.LeasesExpired.Inc()
		s.fr.Record("dispatch", "lease-expired", u.ID, pe.detail)
	}
	select {
	case <-s.halt:
		// Killed by the stop path, or failed while draining: no
		// redelivery, no retry-budget charge; the unit is lost and cuts
		// the stream.
		s.mu.Unlock()
		return
	default:
	}
	attempts := s.attempts[u.ID]
	at, poison := s.opt.Retry.Next(unitKey(u.Spec), attempts, time.Now())
	if poison || pe.permanent {
		s.poisoned = append(s.poisoned, poisonUnit(u, attempts, pe))
		s.dm.PoisonUnits.Inc()
		s.fr.Record("dispatch", "poison", u.ID,
			fmt.Sprintf("after %d attempts: %s", attempts, pe.Error()))
		s.mu.Unlock()
		// Coverage is lost at this unit: everything canonically after it
		// can never be collected, so stop dispatching and drain.
		s.drain()
		return
	}
	s.redeliveries++
	s.dm.Redeliveries.Inc()
	s.dm.BackoffNanos.Add(int64(time.Until(at)))
	s.fr.Record("dispatch", "redeliver", u.ID,
		fmt.Sprintf("attempt %d failed: %s", attempts, pe.Error()))
	s.mu.Unlock()
	wait := time.NewTimer(time.Until(at))
	select {
	case <-wait.C:
	case <-s.halt:
		wait.Stop()
	}
	s.sched.Release(u)
}

// unitKey identifies a unit for backoff jitter derivation.
func unitKey(spec explore.UnitSpec) string {
	if spec.Random != nil {
		return fmt.Sprintf("random:%d-%d", spec.Random.Lo, spec.Random.Hi)
	}
	return fmt.Sprintf("mc:%d", spec.MC.Subtree)
}

// poisonUnit is the quarantine record of unit u after its last failed
// attempt pe.
func poisonUnit(u *explore.Unit, attempts int, pe *procError) *explore.PoisonUnit {
	p := &explore.PoisonUnit{
		ID:         u.ID,
		Kind:       u.Spec.Kind(),
		Attempts:   attempts,
		LastError:  pe.Error(),
		ExitStatus: pe.exitStatus,
		StderrTail: pe.stderrTail,
	}
	if u.Spec.Random != nil {
		p.Lo, p.Hi = u.Spec.Random.Lo, u.Spec.Random.Hi
	} else {
		p.Subtree = u.Spec.MC.Subtree
		for _, te := range u.Spec.MC.Trail {
			p.TrailPrefix = append(p.TrailPrefix, te.Val)
		}
	}
	return p
}

// runInProcess is degraded mode's delivery: the same RunUnit the worker
// binary runs, same spec, same hooks — same bytes.
func (s *supervisor) runInProcess(u *explore.Unit) {
	ur, err := explore.RunUnit(s.opt.Program, s.opt.Explore, u.Spec, explore.UnitHooks{
		OnClassify: func(c explore.UnitClassification) { s.sched.Classify(u, c) },
	})
	if err != nil {
		s.fail(u, &procError{reason: "fatal", detail: err.Error(), permanent: true})
		return
	}
	s.complete(u, ur)
}

// slot is one worker slot's loop: claim units, deliver them to this
// slot's worker process (spawning or respawning as needed), and hand
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
		u := s.sched.Claim()
		if u == nil {
			return
		}
		attempt, degraded := s.lease(u)
		if degraded {
			s.runInProcess(u)
			continue
		}
		if pr == nil {
			p, err := spawn(s.bin, s.opt.WorkerArgs, append(os.Environ(), s.opt.WorkerEnv...), s.hello, s.opt.Lease)
			if err != nil {
				spawnFails++
				s.mu.Lock()
				// Spawn trouble is not the unit's fault: its attempt is
				// uncharged and it goes straight back.
				s.attempts[u.ID]--
				if spawnFails >= s.opt.spawnFailLimit {
					s.degraded = true
					s.dm.Degraded.Inc()
					s.fr.Record("dispatch", "degraded", -1,
						fmt.Sprintf("slot %d: %d consecutive spawn failures", i, spawnFails))
				}
				s.mu.Unlock()
				s.sched.Release(u)
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
			ID:      u.ID,
			Attempt: attempt,
			LeaseMS: int64(s.opt.Lease / time.Millisecond),
			Spec:    u.Spec,
			Cut:     s.sched.Cut(u),
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
		ur, err := pr.deliver(um, s.opt.Lease, func(c explore.UnitClassification) { s.sched.Classify(u, c) }, onTel)
		s.tr.Complete(i+1, "dispatch", fmt.Sprintf("unit %d attempt %d", u.ID, um.Attempt),
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

// finish closes the chain — units a stop or a quarantine left
// unfinished become the cut — and decorates the Result with the
// supervision record.
func (s *supervisor) finish() *explore.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	reason := s.stopReason
	if reason == "" && len(s.poisoned) > 0 {
		reason = "poison"
	}
	res := s.sched.Close(reason)
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
	res.PoisonUnits = s.poisoned
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
