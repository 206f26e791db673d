package dispatch

// Fleet telemetry exactness: a supervised campaign's aggregated metric
// registry must equal the in-process run's, counter for counter, even
// when workers are SIGKILLed mid-unit and units are redelivered. The
// mechanism under test is the delta-shipping pipeline (worker snapshot
// diffs on heartbeats + final top-up on results) and the per-attempt
// rollback that un-applies a dead attempt's partial deltas.

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/persist"
)

// deterministicCounter reports whether a metric participates in the
// fleet-exactness contract. The contract covers every counter the
// exploration itself emits (explore.*, pmem.*, persist.*) and excludes
// timing totals (_ns), which record wall-clock artifacts rather than
// canonical work.
func deterministicCounter(name string) bool {
	if strings.HasSuffix(name, "_ns") {
		return false
	}
	return strings.HasPrefix(name, "explore.") ||
		strings.HasPrefix(name, "pmem.") ||
		strings.HasPrefix(name, "persist.")
}

// TestFleetMetricsExactness (kill chaos, 4 workers): every unit's first
// delivery is killed mid-unit; after redelivery and rollback the
// fleet-aggregated counters are identical to the uninterrupted
// in-process run's. The random case runs a bounded window so the
// pmem.* retirement counters are exercised; the model-check case runs
// with crash snapshots on, which are unit-local, so snapshot reuse and
// the prefix replay work it saves (and with it the persist.* op
// counts) are the same in a worker process as in-process.
func TestFleetMetricsExactness(t *testing.T) {
	cases := []struct {
		name  string
		prog  string
		opt   explore.Options
		chaos string
	}{
		{"random", "figure2",
			explore.Options{Mode: explore.Random, Executions: 200, Seed: 7, Model: persist.Config{Window: 4}},
			"kill-after=5"},
		{"mc", "figure7",
			explore.Options{Mode: explore.ModelCheck, Executions: 10000},
			"kill-after=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseReg := obs.NewRegistry()
			bopt := withWorkers(tc.opt, 1)
			bopt.Obs = &obs.Observer{Metrics: baseReg}
			base := explore.Run(testPrograms[tc.prog](), bopt)

			fleetReg := obs.NewRegistry()
			tr := obs.NewTracer()
			fr := obs.NewFlightRecorder(0)
			opt := supOptions(t, tc.prog, tc.opt, 4, tc.chaos)
			opt.unitExecs = 25
			opt.Explore.Obs = &obs.Observer{Metrics: fleetReg, Tracer: tr, Flight: fr}
			res := Run(opt)
			sameResult(t, res, base)
			if res.Redeliveries < 1 {
				t.Fatalf("Redeliveries = %d, want >= 1 (chaos did not fire)", res.Redeliveries)
			}

			want := baseReg.Snapshot()
			got := fleetReg.Snapshot()
			names := map[string]bool{}
			for n := range want.Counters {
				if deterministicCounter(n) {
					names[n] = true
				}
			}
			for n := range got.Counters {
				if deterministicCounter(n) {
					names[n] = true
				}
			}
			if len(names) == 0 {
				t.Fatal("no deterministic counters recorded")
			}
			sorted := make([]string, 0, len(names))
			for n := range names {
				sorted = append(sorted, n)
			}
			sort.Strings(sorted)
			for _, n := range sorted {
				if got.Counters[n] != want.Counters[n] {
					t.Errorf("counter %s: fleet = %d, in-process = %d", n, got.Counters[n], want.Counters[n])
				}
			}

			// The comparison must not be vacuous: the run recorded real
			// exploration work, per-model backend ops, and (random case)
			// window retirements.
			if want.Counters["explore.executions_started"] == 0 {
				t.Error("in-process run recorded no explore.executions_started")
			}
			persistSeen := false
			for _, n := range sorted {
				if strings.HasPrefix(n, "persist.") && want.Counters[n] > 0 {
					persistSeen = true
					break
				}
			}
			if !persistSeen {
				t.Errorf("no nonzero persist.* counter recorded (counters: %v)", sorted)
			}
			if tc.opt.Model.Window > 0 && want.Counters["pmem.retirements"] == 0 {
				t.Error("windowed run recorded no pmem.retirements")
			}
			if tc.opt.Mode == explore.ModelCheck && want.Counters["explore.snapshots_restored"] == 0 {
				t.Error("model-check run restored no crash snapshot")
			}

			// Merged timeline: worker spans were rebased into the
			// supervisor's tracer, so the trace spans multiple processes.
			pids := map[int]bool{}
			for _, ev := range tr.Events() {
				pids[ev.Pid] = true
			}
			if len(pids) < 2 {
				t.Errorf("merged trace covers %d process(es), want >= 2 (pids: %v)", len(pids), pids)
			}

			// Flight recorder: the kill chaos produced redelivery events.
			redelivers := 0
			for _, ev := range fr.Events() {
				if ev.Name == "redeliver" {
					redelivers++
				}
			}
			if redelivers == 0 {
				t.Errorf("flight recorder holds no redeliver events (total %d)", fr.Total())
			}
		})
	}
}

// TestFleetMetricsExactnessCleanRun: without chaos the same contract
// holds (no rollback path involved), and the dispatch-side bookkeeping
// counters agree with the supervision record on the Result.
func TestFleetMetricsExactnessCleanRun(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 120, Seed: 11}
	baseReg := obs.NewRegistry()
	bopt := withWorkers(eopt, 1)
	bopt.Obs = &obs.Observer{Metrics: baseReg}
	base := explore.Run(figure2(), bopt)

	fleetReg := obs.NewRegistry()
	opt := supOptions(t, "figure2", eopt, 4, "")
	opt.unitExecs = 30
	opt.Explore.Obs = &obs.Observer{Metrics: fleetReg}
	res := Run(opt)
	sameResult(t, res, base)

	want, got := baseReg.Snapshot(), fleetReg.Snapshot()
	for n, w := range want.Counters {
		if !deterministicCounter(n) {
			continue
		}
		if got.Counters[n] != w {
			t.Errorf("counter %s: fleet = %d, in-process = %d", n, got.Counters[n], w)
		}
	}
	if got.Counters["dispatch.redeliveries"] != int64(res.Redeliveries) {
		t.Errorf("dispatch.redeliveries = %d, Result.Redeliveries = %d",
			got.Counters["dispatch.redeliveries"], res.Redeliveries)
	}
	if n := got.Counters["dispatch.units_merged"]; n == 0 {
		t.Error("dispatch.units_merged = 0, want > 0")
	}
}
