package explore

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// counters snapshots the registry and returns the counter map plus a
// summing helper over prefixed names.
func counters(t *testing.T, reg *obs.Registry) map[string]int64 {
	t.Helper()
	return reg.Snapshot().Counters
}

func sumPrefixed(c map[string]int64, prefix, suffix string) int64 {
	var sum int64
	for name, v := range c {
		if len(name) > len(prefix)+len(suffix) &&
			name[:len(prefix)] == prefix && name[len(name)-len(suffix):] == suffix {
			sum += v
		}
	}
	return sum
}

// TestObsCountersUnderContainmentRandom runs the random-mode chaos
// harness at 8 workers with the metrics registry live and checks the
// counter invariants: every started execution is classified into
// exactly one completion counter, and the counters agree with the
// collected Result.
func TestObsCountersUnderContainmentRandom(t *testing.T) {
	const execs = 80
	reg := obs.NewRegistry()
	res := Run(figure2(), Options{
		Mode: Random, Executions: execs, Seed: 11, Workers: 8,
		InjectFault: injectEvery(5, 0, 1),
		Obs:         &obs.Observer{Metrics: reg},
	})
	if res.Partial {
		t.Fatalf("containment must not stop the run: %s", res)
	}
	c := counters(t, reg)
	started := c["explore.executions_started"]
	completed := c["explore.executions_completed"]
	aborted := c["explore.executions_aborted"]
	quarantined := c["explore.executions_quarantined"]
	if started != int64(execs) {
		t.Fatalf("started counter %d, want %d", started, execs)
	}
	if started != completed+aborted+quarantined {
		t.Fatalf("classification leak: started %d != completed %d + aborted %d + quarantined %d",
			started, completed, aborted, quarantined)
	}
	if quarantined != int64(res.Quarantined) {
		t.Fatalf("quarantined counter %d != Result.Quarantined %d", quarantined, res.Quarantined)
	}
	if aborted != int64(res.Aborted) {
		t.Fatalf("aborted counter %d != Result.Aborted %d", aborted, res.Aborted)
	}
	if got := sumPrefixed(c, "pool.worker", ".dispatches"); got != started {
		t.Fatalf("worker dispatches sum %d != started %d", got, started)
	}
	snap := reg.Snapshot()
	if d := snap.Gauges["explore.frontier_depth"]; d != 0 {
		t.Fatalf("frontier gauge %d after a complete run, want 0", d)
	}
	if h := snap.Histograms["explore.execution_ns"]; h.Count != started {
		t.Fatalf("execution_ns histogram count %d != started %d", h.Count, started)
	}
	if c["persist.px86.crashes"] == 0 {
		t.Fatal("backend crash counter never moved")
	}
}

// TestObsCountersUnderContainmentModelCheck does the same for the
// frontier-split DFS, where the classification adds the pruned class
// and the state cache must balance probes against hits + misses.
func TestObsCountersUnderContainmentModelCheck(t *testing.T) {
	reg := obs.NewRegistry()
	res := Run(figure2(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 8,
		InjectFault: injectEvery(4, 2, 3),
		Obs:         &obs.Observer{Metrics: reg},
	})
	if res.Partial {
		t.Fatalf("containment must not stop the run: %s", res)
	}
	c := counters(t, reg)
	started := c["explore.executions_started"]
	classified := c["explore.executions_completed"] + c["explore.executions_aborted"] +
		c["explore.executions_quarantined"] + c["explore.executions_pruned"]
	if started == 0 || started != classified {
		t.Fatalf("classification leak: started %d != classified %d (%v)", started, classified, c)
	}
	// A complete run collects every non-pruned execution, so the
	// counters and the assembled Result must agree exactly.
	if collected := started - c["explore.executions_pruned"]; collected != int64(res.Executions) {
		t.Fatalf("non-pruned started %d != Result.Executions %d", collected, res.Executions)
	}
	if q := c["explore.executions_quarantined"]; q != int64(res.Quarantined) {
		t.Fatalf("quarantined counter %d != Result.Quarantined %d", q, res.Quarantined)
	}
	probes, hits, misses := c["statecache.probes"], c["statecache.hits"], c["statecache.misses"]
	if probes == 0 || probes != hits+misses {
		t.Fatalf("cache imbalance: probes %d != hits %d + misses %d", probes, hits, misses)
	}
	if hits != int64(res.CacheHits) || misses != int64(res.CacheMisses) {
		t.Fatalf("cache counters (%d/%d) != Result stats (%d/%d)",
			hits, misses, res.CacheHits, res.CacheMisses)
	}
	if split := c["statecache.misses_new_image"] + c["statecache.misses_new_heap"]; split != misses {
		t.Fatalf("miss split %d != misses %d", split, misses)
	}
	if got := sumPrefixed(c, "pool.worker", ".dispatches"); got == 0 || got > started {
		t.Fatalf("worker dispatches sum %d vs %d started subtree executions", got, started)
	}
}

// TestObsCountersReductionsUnderContainment runs the model-check chaos
// harness with the reductions active (the default) and pins the counter
// invariants that the prefix-snapshot and state-cache machinery must
// preserve under fault injection:
//
//   - the classification identity still balances — snapshot-resumed
//     executions are started/completed like any other;
//   - the snapshot counter agrees exactly with the assembled Result;
//   - state-cache registrations made inside a pruned-and-restored
//     subtree must not leak into sibling subtrees: probes still balance
//     against hits + misses and match the Result's cumulative stats
//     (the regression this pins surfaced as a probe/hit imbalance after
//     a snapshot restore);
//   - and the violation key set is exactly the unreduced search's.
//
// Runs under -race via the chaos CI job.
func TestObsCountersReductionsUnderContainment(t *testing.T) {
	reg := obs.NewRegistry()
	res := Run(figure2(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 8,
		InjectFault: injectEvery(4, 2, 3),
		Obs:         &obs.Observer{Metrics: reg},
	})
	if res.Partial {
		t.Fatalf("containment must not stop the run: %s", res)
	}
	c := counters(t, reg)
	started := c["explore.executions_started"]
	pruned := c["explore.executions_pruned"]
	classified := c["explore.executions_completed"] + c["explore.executions_aborted"] +
		c["explore.executions_quarantined"] + pruned
	if started == 0 || started != classified {
		t.Fatalf("classification leak: started %d != classified %d (%v)", started, classified, c)
	}
	// One snapshot can be restored many times (each backtrack that keeps
	// it resumes from it again), so the counters are independently
	// nonzero rather than ordered.
	if taken, restored := c["explore.snapshots_taken"], c["explore.snapshots_restored"]; taken == 0 || restored == 0 {
		t.Fatalf("reduction machinery never engaged: taken %d, restored %d", taken, restored)
	}
	if got := c["explore.snapshots_restored"]; got != int64(res.SnapshotRestores) {
		t.Fatalf("snapshots_restored counter %d != Result.SnapshotRestores %d", got, res.SnapshotRestores)
	}
	probes, hits, misses := c["statecache.probes"], c["statecache.hits"], c["statecache.misses"]
	if probes == 0 || probes != hits+misses {
		t.Fatalf("cache imbalance after restores: probes %d != hits %d + misses %d", probes, hits, misses)
	}
	if hits != int64(res.CacheHits) || misses != int64(res.CacheMisses) {
		t.Fatalf("cache counters (%d/%d) != Result stats (%d/%d)",
			hits, misses, res.CacheHits, res.CacheMisses)
	}
	// Snapshots change how executions are produced, never which
	// violations the campaign reports.
	off := Run(figure2(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 8,
		InjectFault: injectEvery(4, 2, 3),
		noSnapshots: true,
	})
	if got, want := res.ViolationKeys(), off.ViolationKeys(); !equalKeys(got, want) {
		t.Fatalf("reductions changed the violation set\n  on:  %v\n  off: %v", got, want)
	}
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestObsCountersUnderStealContainment runs the model-check chaos
// harness at four workers and pins the driver's own instruments: the
// state cache balances exactly, the classification identity holds with
// quarantines landing in units several workers run, and the frontier
// gauge drains back to zero once every unit has been folded.
func TestObsCountersUnderStealContainment(t *testing.T) {
	reg := obs.NewRegistry()
	res := Run(figure2(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 4,
		InjectFault: injectEvery(4, 2, 3),
		Obs:         &obs.Observer{Metrics: reg},
	})
	if res.Partial {
		t.Fatalf("containment must not stop the run: %s", res)
	}
	c := counters(t, reg)
	started := c["explore.executions_started"]
	classified := c["explore.executions_completed"] + c["explore.executions_aborted"] +
		c["explore.executions_quarantined"] + c["explore.executions_pruned"]
	if started == 0 || started != classified {
		t.Fatalf("classification leak: started %d != classified %d (%v)", started, classified, c)
	}
	if q := c["explore.executions_quarantined"]; q != int64(res.Quarantined) {
		t.Fatalf("quarantined counter %d != Result.Quarantined %d", q, res.Quarantined)
	}
	probes := c["statecache.probes"]
	if hits, misses := c["statecache.hits"], c["statecache.misses"]; probes == 0 || probes != hits+misses {
		t.Fatalf("cache imbalance: probes %d != hits %d + misses %d", probes, hits, misses)
	}
	if d := reg.Snapshot().Gauges["explore.frontier_depth"]; d != 0 {
		t.Fatalf("frontier gauge %d after a complete run, want 0", d)
	}
}

// TestObsFrontierRemainingMidStealStop pins the stop-reason latch at
// four workers: a deadline stop landing while spawned units are still
// unclaimed must latch exactly one deadline stop, report the parked
// units in FrontierRemaining, and still drain the frontier gauge to
// zero on the way out (parked units are counted out of the gauge even
// when they never run).
func TestObsFrontierRemainingMidStealStop(t *testing.T) {
	for attempt := 0; attempt < 50; attempt++ {
		reg := obs.NewRegistry()
		res := Run(figure7(), Options{
			Mode: ModelCheck, Executions: 10000, Workers: 4,
			Deadline: 100 * time.Microsecond,
			Obs:      &obs.Observer{Metrics: reg},
		})
		snap := reg.Snapshot()
		if d := snap.Gauges["explore.frontier_depth"]; d != 0 {
			t.Fatalf("frontier gauge %d after the run wound down, want 0", d)
		}
		if !res.Partial {
			continue // deadline never tripped; retry with a smaller window
		}
		if got := snap.Counters["explore.stops_deadline"]; got != 1 {
			t.Fatalf("stops_deadline %d, want exactly 1 (latch leaked)", got)
		}
		if got := snap.Counters["explore.stops_canceled"]; got != 0 {
			t.Fatalf("stops_canceled %d on a deadline stop, want 0", got)
		}
		if res.StopReason != "deadline" {
			t.Fatalf("StopReason %q, want deadline", res.StopReason)
		}
		if res.FrontierRemaining == 0 {
			t.Fatalf("partial run reports a drained frontier: %s", res)
		}
		return
	}
	t.Skip("deadline never interrupted the run; nothing to pin")
}

// TestObsWorkerInvarianceUnderContainment asserts that turning the
// registry on does not perturb the deterministic outcome, at any
// worker count.
func TestObsWorkerInvarianceUnderContainment(t *testing.T) {
	run := func(workers int, o *obs.Observer) *Result {
		return Run(figure2(), Options{
			Mode: Random, Executions: 60, Seed: 7, Workers: workers,
			InjectFault: injectEvery(5, 0, 1), Obs: o,
		})
	}
	plain := run(1, nil)
	for _, workers := range []int{1, 8} {
		instr := run(workers, &obs.Observer{Metrics: obs.NewRegistry()})
		if instr.Executions != plain.Executions || instr.Quarantined != plain.Quarantined ||
			instr.Aborted != plain.Aborted {
			t.Fatalf("workers=%d: instrumented outcome diverges: %s vs %s", workers, instr, plain)
		}
	}
}

// TestStopReasonLatchCancelAfterDeadline pins the stopper's
// first-cause-wins latch: once the deadline trips, a later context
// cancellation neither rewrites the reason nor double-counts a stop.
func TestStopReasonLatchCancelAfterDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := &Options{Context: ctx, Deadline: time.Nanosecond, em: obs.ExploreInstruments(reg)}
	st := newStopper(opt)
	time.Sleep(time.Millisecond)
	if !st.stopped() {
		t.Fatal("expired deadline not observed")
	}
	if st.why() != "deadline" {
		t.Fatalf("reason %q, want deadline", st.why())
	}
	cancel()
	if !st.stopped() {
		t.Fatal("latched stopper must stay stopped")
	}
	if st.why() != "deadline" {
		t.Fatalf("later cancellation rewrote the reason to %q", st.why())
	}
	c := counters(t, reg)
	if c["explore.stops_deadline"] != 1 || c["explore.stops_canceled"] != 0 {
		t.Fatalf("stop counters deadline=%d canceled=%d, want 1/0",
			c["explore.stops_deadline"], c["explore.stops_canceled"])
	}
}

// TestStopReasonCancelAsFrontierDrains is the satellite regression: a
// cancellation landing in the same tick the frontier drains (a SIGINT
// racing the last execution) must be reported as the StopReason even
// though the run is complete — previously it was silently swallowed.
func TestStopReasonCancelAsFrontierDrains(t *testing.T) {
	const execs = 12
	for _, workers := range []int{1, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		res := Run(figure2(), Options{
			Mode: Random, Executions: execs, Seed: 3, Workers: workers,
			Context: ctx,
			// The collector serializes Progress in index order, so the
			// cancel lands exactly as the final execution is collected:
			// nothing is left to claim, the run completes, and the stop
			// races the drain.
			Progress: func(exec int) {
				if exec == execs {
					cancel()
				}
			},
		})
		cancel()
		if res.Partial {
			t.Fatalf("workers=%d: run completed before the cancel, must not be partial: %s", workers, res)
		}
		if res.Executions != execs {
			t.Fatalf("workers=%d: got %d executions, want %d", workers, res.Executions, execs)
		}
		if res.StopReason != "canceled" {
			t.Fatalf("workers=%d: StopReason %q, want canceled (stop swallowed)", workers, res.StopReason)
		}
	}
}

// TestStopReasonCancelAsFrontierDrainsModelCheck covers the same race
// for the model-check engine. The uninterrupted pilot run sizes the
// frontier so the cancel can land exactly on the last collected
// execution.
func TestStopReasonCancelAsFrontierDrainsModelCheck(t *testing.T) {
	popt := Options{Mode: ModelCheck, Executions: 10000, Workers: 4}
	total := Run(figure2(), popt).Executions

	ctx, cancel := context.WithCancel(context.Background())
	opt := popt
	opt.Context = ctx
	opt.Progress = func(exec int) {
		if exec == total {
			cancel()
		}
	}
	res := Run(figure2(), opt)
	cancel()
	if res.Partial {
		t.Fatalf("run completed before the cancel, must not be partial: %s", res)
	}
	if res.StopReason != "canceled" {
		t.Fatalf("StopReason %q, want canceled", res.StopReason)
	}
}
