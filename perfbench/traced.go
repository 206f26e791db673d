package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/pmem"
)

// Benchmark-side trace timelines; explore uses tid 0 for the campaign
// and 1.. for its workers.
const (
	callTid  = 100
	phaseTid = 101
)

// layerProbe is the traced run's benchmark-side instrumentation: a span
// around each call into a layer, the time and operations of every
// program phase call, and the gaps between Progress callbacks. It is
// used at Workers=1 only, so it needs no locking. A nil probe is a
// no-op.
type layerProbe struct {
	tr *obs.Tracer
	// callTime sums the time spent inside explore.Run and dispatch.Run.
	callTime time.Duration
	// phaseTime and phaseOps sum every phase call's time and memory
	// operations, the pilot run's included.
	phaseTime time.Duration
	phaseOps  int64
	// gaps are the times between consecutive Progress callbacks of one
	// campaign: one execution each, with its engine overhead.
	gaps []float64
	last time.Time
}

func (p *layerProbe) begin() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *layerProbe) end(start time.Time, call, campaign string) {
	if p == nil {
		return
	}
	d := time.Since(start)
	p.callTime += d
	p.tr.Complete(callTid, "perfbench", call+" "+campaign, start, d, -1)
}

func (p *layerProbe) progress() func(int) {
	if p == nil {
		return nil
	}
	p.last = time.Time{}
	return func(int) {
		now := time.Now()
		if !p.last.IsZero() {
			p.gaps = append(p.gaps, float64(now.Sub(p.last).Microseconds()))
		}
		p.last = now
	}
}

func (p *layerProbe) wrap(prog explore.Program) explore.Program {
	if p == nil {
		return prog
	}
	return &timedProgram{inner: prog, p: p}
}

// timedProgram forwards to a program and times each phase call. It
// preserves the program's ReentrantPhases capability, so the explorer
// takes the same snapshot decisions as on the bare program.
type timedProgram struct {
	inner explore.Program
	p     *layerProbe
}

func (t *timedProgram) Name() string { return t.inner.Name() }

func (t *timedProgram) PhasesReentrant() bool {
	r, ok := t.inner.(explore.ReentrantPhases)
	return ok && r.PhasesReentrant()
}

func (t *timedProgram) Phases() []func(*pmem.World) {
	inner := t.inner.Phases()
	out := make([]func(*pmem.World), len(inner))
	for i, phase := range inner {
		name := "phase " + strconv.Itoa(i)
		out[i] = func(w *pmem.World) {
			start := time.Now()
			ops := w.Ops()
			// Deferred so a phase that unwinds on an injected crash is
			// still counted.
			defer func() {
				d := time.Since(start)
				t.p.phaseTime += d
				t.p.phaseOps += int64(w.Ops() - ops)
				t.p.tr.Complete(phaseTid, "perfbench", name, start, d, -1)
			}()
			phase(w)
		}
	}
	return out
}

// layerRun is one workload's material for its per-layer metrics: an
// untraced repetition and a traced one.
type layerRun struct {
	seed   int64
	plain  []campaign
	wall   time.Duration // untraced repetition
	traced []campaign
	reg    obs.Snapshot
	probe  *layerProbe
}

// traced runs every workload once untraced and once traced, then the
// layer ladder, and reports the per-layer metrics. The spans go to a
// Chrome trace at tracePath.
func (b *bencher) traced(seed int64, tracePath string) (*result, error) {
	tr := obs.NewTracer()
	tr.NameThread(callTid, "perfbench: layer calls")
	tr.NameThread(phaseTid, "perfbench: program phases")
	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	tally := func(w *workload, cs []campaign) {
		res.Attempted += len(cs)
		res.Failed += b.checkAll(w, cs)
	}
	for _, w := range workloads {
		// A warm-up repetition, so neither timed repetition pays for
		// cold caches.
		if _, err := w.run(b.env(seed, 0)); err != nil {
			return nil, err
		}
		// The runtime refreshes its CPU classes only at a collection,
		// so one is forced on each side of the repetition.
		runtime.GC()
		gc0, busy0 := gcCPU()
		start := time.Now()
		plain, err := w.run(b.env(seed, 0))
		wall := time.Since(start)
		runtime.GC()
		gc1, busy1 := gcCPU()
		if err != nil {
			return nil, err
		}
		tally(w, plain)
		m["gc.cpu_share."+w.name] = quot(gc1-gc0, busy1-busy0, "ratio")

		reg := obs.NewRegistry()
		probe := &layerProbe{tr: tr}
		e := b.env(seed, 0)
		e.obs = &obs.Observer{Metrics: reg, Tracer: tr}
		e.probe = probe
		runtime.GC()
		start = time.Now()
		cs, err := w.run(e)
		tracedWall := time.Since(start)
		if err != nil {
			return nil, err
		}
		tally(w, cs)
		m["tracing_overhead."+w.name] = quot(tracedWall.Seconds(), wall.Seconds(), "ratio")
		l := layerRun{seed: seed, plain: plain, wall: wall, traced: cs, reg: reg.Snapshot(), probe: probe}
		switch w.name {
		case "mc-table2":
			err = b.mcLayers(m, l, tally)
		case "random-table2":
			randomLayers(m, l)
		case "redis-stream":
			redisLayers(m, l)
		case "isolated-random":
			err = b.isolatedLayers(m, l, tr, tally)
		}
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(b.log, "perfbench: traced %s\n", w.name)
	}
	if err := ladder(m, seed); err != nil {
		return nil, err
	}
	if err := tr.WriteFiles(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "perfbench: wrote %s\n", tracePath)
	res.Correct = res.Failed == 0
	return res, nil
}

// mcLayers reports the model-check engine's layers and the width-2
// scaling row. The row is report-only: width-2 timing is not steady on a
// shared two-CPU machine.
func (b *bencher) mcLayers(m map[string]metric, l layerRun, tally func(*workload, []campaign)) error {
	var execs, restores int
	for _, c := range l.traced {
		execs += c.res.Executions
		restores += c.res.SnapshotRestores
	}
	m["explore.self_share.mc-table2"] = selfShare(l.probe)
	m["explore.pruned_share.mc-table2"] = counterQuot(l.reg, "explore.executions_pruned", "explore.executions_started")
	m["explore.snapshot_restore_share.mc-table2"] = quot(float64(restores), float64(execs), "ratio")
	m["persist.candidates_per_crash.mc-table2"] = counterQuot(l.reg, "persist.px86.candidates_resolved", "persist.px86.crashes")

	w := workloadByName("mc-table2")
	e := b.env(l.seed, 0)
	e.workers = 2
	runtime.GC()
	start := time.Now()
	cs, err := w.run(e)
	wall2 := time.Since(start)
	if err != nil {
		return err
	}
	tally(w, cs)
	steals := 0
	for _, c := range cs {
		steals += c.res.Steals
	}
	reg := obs.NewRegistry()
	e.obs = &obs.Observer{Metrics: reg}
	start = time.Now()
	cs, err = w.run(e)
	wallReg := time.Since(start)
	if err != nil {
		return err
	}
	tally(w, cs)
	idle := reg.Snapshot().Counters["explore.worker_idle_ns"]
	m["explore.pool.speedup_w2"] = quot(l.wall.Seconds(), wall2.Seconds(), "ratio")
	m["explore.pool.idle_share_w2"] = quot(float64(idle), 2*float64(wallReg.Nanoseconds()), "ratio")
	m["explore.pool.steals_w2"] = metric{float64(steals), "count"}
	return nil
}

func randomLayers(m map[string]metric, l layerRun) {
	m["explore.self_share.random-table2"] = selfShare(l.probe)
	m["explore.exec_us.p50.random-table2"] = metric{percentile(l.probe.gaps, 50), "us"}
	m["explore.exec_us.p99.random-table2"] = metric{percentile(l.probe.gaps, 99), "us"}
	m["explore.pruned_share.random-table2"] = counterQuot(l.reg, "explore.executions_pruned", "explore.executions_started")
}

func redisLayers(m map[string]metric, l layerRun) {
	var sweep, elapsed, pinned int64
	for _, c := range l.plain {
		sweep += c.res.SweepNanos
		elapsed += c.res.Elapsed.Nanoseconds()
		pinned = max(pinned, c.res.PinnedRootsMax)
	}
	m["explore.self_share.redis-stream"] = selfShare(l.probe)
	m["pmem.ns_per_op.redis-stream"] = quot(float64(l.probe.phaseTime.Nanoseconds()), float64(l.probe.phaseOps), "ns/op")
	m["trace.sweep_share.redis-stream"] = quot(float64(sweep), float64(elapsed), "ratio")
	m["trace.pinned_roots_max.redis-stream"] = metric{float64(pinned), "count"}
}

// isolatedLayers compares the dispatched campaign with the same campaign
// run in-process, untraced and traced.
func (b *bencher) isolatedLayers(m map[string]metric, l layerRun, tr *obs.Tracer, tally func(*workload, []campaign)) error {
	w := workloadByName("isolated-random")
	e := b.env(l.seed, 0)
	e.inProcess = true
	runtime.GC()
	start := time.Now()
	cs, err := w.run(e)
	inWall := time.Since(start)
	if err != nil {
		return err
	}
	tally(w, cs)
	reg := obs.NewRegistry()
	probe := &layerProbe{tr: tr}
	e.obs = &obs.Observer{Metrics: reg}
	e.probe = probe
	if cs, err = w.run(e); err != nil {
		return err
	}
	tally(w, cs)
	var units []float64
	for _, ev := range tr.Events() {
		if ev.Cat == "dispatch" && ev.Ph == "X" && strings.HasPrefix(ev.Name, "unit ") {
			units = append(units, float64(ev.Dur)/1000)
		}
	}
	m["dispatch.overhead_share.isolated-random"] = quot(l.wall.Seconds()-inWall.Seconds(), inWall.Seconds(), "ratio")
	m["dispatch.unit_ms.p50.isolated-random"] = metric{median(units), "ms"}
	m["interp.ns_per_step.isolated-random"] = quot(float64(probe.phaseTime.Nanoseconds()), float64(reg.Snapshot().Counters["interp.steps"]), "ns")
	m["explore.exec_us.p50.isolated-random"] = metric{percentile(probe.gaps, 50), "us"}
	m["explore.exec_us.p99.isolated-random"] = metric{percentile(probe.gaps, 99), "us"}
	return nil
}

// selfShare is the share of explore.Run's wall time spent outside
// program phases: the engine's own work.
func selfShare(p *layerProbe) metric {
	return quot(float64(p.callTime-p.phaseTime), float64(p.callTime), "ratio")
}

// quot is num/den as a metric, 0 when den is 0: JSON has no infinities.
func quot(num, den float64, unit string) metric {
	if den == 0 {
		return metric{0, unit}
	}
	return metric{num / den, unit}
}

// counterQuot divides two registry counters.
func counterQuot(s obs.Snapshot, num, den string) metric {
	return quot(float64(s.Counters[num]), float64(s.Counters[den]), "ratio")
}

// gcCPU returns the Go runtime's cumulative GC CPU time and its total
// busy (user plus GC) CPU time, in seconds, as of the last collection.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	gc = s[0].Value.Float64()
	return gc, gc + s[1].Value.Float64()
}
