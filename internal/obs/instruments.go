package obs

import "strconv"

// This file is the instrument catalog: every named instrument the stack emits
// is declared here, resolved once per campaign via the *Instruments
// constructors. Building a bundle from a nil registry yields all-nil
// instruments, i.e. a complete no-op bundle.

// ExploreMetrics covers the exploration engines (both modes).
type ExploreMetrics struct {
	Started     *Counter // explore.executions_started
	Completed   *Counter // explore.executions_completed
	Aborted     *Counter // explore.executions_aborted (deadline/cancel/op-budget)
	Quarantined *Counter // explore.executions_quarantined (panic containment)
	Pruned      *Counter // explore.executions_pruned (state-cache prune, mc mode)

	SnapshotsTaken    *Counter // explore.snapshots_taken (crash-boundary world snapshots)
	SnapshotsRestored *Counter // explore.snapshots_restored (executions resumed from one)

	WorkerIdle *Counter // explore.worker_idle_ns (aggregate idle time across all workers)

	StopDeadline *Counter // explore.stops_deadline
	StopCanceled *Counter // explore.stops_canceled

	FrontierDepth *Gauge     // explore.frontier_depth
	ExecNanos     *Histogram // explore.execution_ns
}

// ExploreInstruments resolves the explore bundle from r (all-nil if r is nil).
func ExploreInstruments(r *Registry) ExploreMetrics {
	if r == nil {
		return ExploreMetrics{}
	}
	return ExploreMetrics{
		Started:           r.Counter("explore.executions_started"),
		Completed:         r.Counter("explore.executions_completed"),
		Aborted:           r.Counter("explore.executions_aborted"),
		Quarantined:       r.Counter("explore.executions_quarantined"),
		Pruned:            r.Counter("explore.executions_pruned"),
		SnapshotsTaken:    r.Counter("explore.snapshots_taken"),
		SnapshotsRestored: r.Counter("explore.snapshots_restored"),
		WorkerIdle:        r.Counter("explore.worker_idle_ns"),
		StopDeadline:      r.Counter("explore.stops_deadline"),
		StopCanceled:      r.Counter("explore.stops_canceled"),
		FrontierDepth:     r.Gauge("explore.frontier_depth"),
		ExecNanos:         r.Histogram("explore.execution_ns", DurationBuckets),
	}
}

// CacheMetrics covers the post-crash state cache. Misses are split by
// fingerprint class: a miss whose persistence fingerprint was never seen
// before (new image) versus one whose image was seen but paired with a new
// heap size (new heap). The cache has no eviction policy, so it has no
// eviction counter.
type CacheMetrics struct {
	Probes       *Counter // statecache.probes
	Hits         *Counter // statecache.hits
	Misses       *Counter // statecache.misses
	MissNewImage *Counter // statecache.misses_new_image
	MissNewHeap  *Counter // statecache.misses_new_heap
	Entries      *Gauge   // statecache.entries
}

// CacheInstruments resolves the state-cache bundle from r.
func CacheInstruments(r *Registry) CacheMetrics {
	if r == nil {
		return CacheMetrics{}
	}
	return CacheMetrics{
		Probes:       r.Counter("statecache.probes"),
		Hits:         r.Counter("statecache.hits"),
		Misses:       r.Counter("statecache.misses"),
		MissNewImage: r.Counter("statecache.misses_new_image"),
		MissNewHeap:  r.Counter("statecache.misses_new_heap"),
		Entries:      r.Gauge("statecache.entries"),
	}
}

// PersistMetrics covers one persistency-model backend. Instruments are named
// persist.<model>.<op> so differential campaigns report per-model counters.
type PersistMetrics struct {
	Stores    *Counter // persist.<model>.stores
	Flushes   *Counter // persist.<model>.flushes
	FlushOpts *Counter // persist.<model>.flushopts
	Fences    *Counter // persist.<model>.fences (sfence + mfence)
	Drains    *Counter // persist.<model>.drains (scheduler-chosen buffer commits)
	Crashes   *Counter // persist.<model>.crashes
	Resolved  *Counter // persist.<model>.candidates_resolved
}

// PersistInstruments resolves the backend bundle for the named model from r.
func PersistInstruments(r *Registry, model string) PersistMetrics {
	if r == nil {
		return PersistMetrics{}
	}
	p := "persist." + model + "."
	return PersistMetrics{
		Stores:    r.Counter(p + "stores"),
		Flushes:   r.Counter(p + "flushes"),
		FlushOpts: r.Counter(p + "flushopts"),
		Fences:    r.Counter(p + "fences"),
		Drains:    r.Counter(p + "drains"),
		Crashes:   r.Counter(p + "crashes"),
		Resolved:  r.Counter(p + "candidates_resolved"),
	}
}

// WorldMetrics covers the simulated machine shared by interp and pmem.
// The retirement instruments move only under bounded-window mode
// (persist.Config.Window > 0); they stay zero on unbounded campaigns.
type WorldMetrics struct {
	ScheduleSteps *Counter // pmem.schedule_steps (one per scheduled memory op)
	InterpSteps   *Counter // interp.steps (one per interpreted statement)

	Retirements    *Counter   // pmem.retirements (completed window sweeps)
	RetiredStores  *Counter   // pmem.retired_stores (store records released)
	RetiredEvents  *Counter   // pmem.retired_events (event records released)
	WindowRetained *Gauge     // pmem.window_retained (event-log occupancy after the last sweep)
	PinnedRoots    *Gauge     // pmem.pinned_roots (pin-closure size of the last sweep)
	SweepNanos     *Histogram // pmem.retire_sweep_ns (per-sweep wall time)
}

// WorldInstruments resolves the world bundle from r.
func WorldInstruments(r *Registry) WorldMetrics {
	if r == nil {
		return WorldMetrics{}
	}
	return WorldMetrics{
		ScheduleSteps:  r.Counter("pmem.schedule_steps"),
		InterpSteps:    r.Counter("interp.steps"),
		Retirements:    r.Counter("pmem.retirements"),
		RetiredStores:  r.Counter("pmem.retired_stores"),
		RetiredEvents:  r.Counter("pmem.retired_events"),
		WindowRetained: r.Gauge("pmem.window_retained"),
		PinnedRoots:    r.Gauge("pmem.pinned_roots"),
		SweepNanos:     r.Histogram("pmem.retire_sweep_ns", DurationBuckets),
	}
}

// DispatchMetrics covers the process-isolation supervisor
// (internal/dispatch). These are supervisor-side instruments; the
// per-execution explore.*/pmem.*/persist.* counters accrue in the
// worker processes' registries and are merged into the supervisor's
// via snapshot deltas on the heartbeat/result wire messages, so the
// supervisor registry carries the whole fleet's telemetry.
type DispatchMetrics struct {
	UnitsDispatched *Counter   // dispatch.units_dispatched (unit deliveries, incl. redeliveries)
	UnitsMerged     *Counter   // dispatch.units_merged (unit results assembled)
	LeasesGranted   *Counter   // dispatch.leases_granted
	LeasesExpired   *Counter   // dispatch.leases_expired (heartbeat deadline passed)
	Redeliveries    *Counter   // dispatch.redeliveries (failed/expired units re-enqueued)
	BackoffNanos    *Counter   // dispatch.backoff_ns (aggregate redelivery delay)
	WorkerRestarts  *Counter   // dispatch.worker_restarts (replacement processes spawned)
	PoisonUnits     *Counter   // dispatch.poison_units (units quarantined past the retry budget)
	Degraded        *Counter   // dispatch.degraded (fallbacks to in-process execution)
	WorkersLive     *Gauge     // dispatch.workers_live
	UnitNanos       *Histogram // dispatch.unit_ns (delivery-to-merge latency)
}

// DispatchInstruments resolves the supervisor bundle from r.
func DispatchInstruments(r *Registry) DispatchMetrics {
	if r == nil {
		return DispatchMetrics{}
	}
	return DispatchMetrics{
		UnitsDispatched: r.Counter("dispatch.units_dispatched"),
		UnitsMerged:     r.Counter("dispatch.units_merged"),
		LeasesGranted:   r.Counter("dispatch.leases_granted"),
		LeasesExpired:   r.Counter("dispatch.leases_expired"),
		Redeliveries:    r.Counter("dispatch.redeliveries"),
		BackoffNanos:    r.Counter("dispatch.backoff_ns"),
		WorkerRestarts:  r.Counter("dispatch.worker_restarts"),
		PoisonUnits:     r.Counter("dispatch.poison_units"),
		Degraded:        r.Counter("dispatch.degraded"),
		WorkersLive:     r.Gauge("dispatch.workers_live"),
		UnitNanos:       r.Histogram("dispatch.unit_ns", DurationBuckets),
	}
}

// WorkerMetrics covers one pool worker. Instruments are named
// pool.worker<N>.<field>; N is the 1-based worker id that also serves as the
// trace timeline tid.
type WorkerMetrics struct {
	BusyNanos  *Counter // pool.worker<N>.busy_ns
	IdleNanos  *Counter // pool.worker<N>.idle_ns
	Dispatches *Counter // pool.worker<N>.dispatches
}

// WorkerInstruments resolves the bundle for worker id (1-based) from r.
func WorkerInstruments(r *Registry, id int) WorkerMetrics {
	if r == nil {
		return WorkerMetrics{}
	}
	p := "pool.worker" + strconv.Itoa(id) + "."
	return WorkerMetrics{
		BusyNanos:  r.Counter(p + "busy_ns"),
		IdleNanos:  r.Counter(p + "idle_ns"),
		Dispatches: r.Counter(p + "dispatches"),
	}
}
