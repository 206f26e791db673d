package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// probesPerRep is how many cold starts a timed run makes before each
	// timed repetition to measure set-up time. Spreading them over the
	// run exposes them to the same machine conditions as the
	// repetitions; the median is reported.
	probesPerRep = 3
	// minReps is the fewest timed repetitions a run makes, however
	// short -seconds is.
	minReps = 3
	// userHZ is the unit of the kernel's /proc/stat CPU counters.
	userHZ = 100
)

// bencher runs workloads and checks their verdicts.
type bencher struct {
	ref       *reference
	workerBin string
	log       io.Writer
}

func (b *bencher) env(seed int64, budget int) env {
	return env{seed: seed, workers: 1, budget: budget, workerBin: b.workerBin}
}

// repSeed derives repetition rep's seed from the run's seed, so each
// repetition explores different inputs and a run's figures average over
// them. Set-up probes use negative rep numbers.
func repSeed(seed int64, rep int) int64 { return seed*1_000_003 + int64(rep) }

// checkAll compares a repetition's campaigns with the reference and
// returns how many differ; each difference is logged.
func (b *bencher) checkAll(w *workload, cs []campaign) int {
	bad := 0
	for _, c := range cs {
		if err := b.ref.check(w, c); err != nil {
			bad++
			fmt.Fprintf(b.log, "perfbench: %s: %s: verdict differs from the reference: %v\n", w.name, c.name, err)
		}
	}
	if w.name == "random-table2" && bad == 0 {
		if got := summarizeTable2(cs); !reflect.DeepEqual(got, b.ref.Table2) {
			fmt.Fprintf(b.log, "perfbench: random-table2: row match %+v, reference %+v\n", got, b.ref.Table2)
			bad = len(cs)
		}
	}
	return bad
}

// setupOf is a repetition's set-up time: program construction plus all
// campaign time spent outside executions. On an execution budget of 1
// that is everything before the first execution: planning and the pilot
// run, and for dispatched campaigns worker spawn and handshake.
func setupOf(cs []campaign) time.Duration {
	var d time.Duration
	for _, c := range cs {
		d += c.build + c.res.Elapsed - c.res.WorkerTime
	}
	return d
}

// sample is one timed repetition's measurements.
type sample struct {
	wall, cpu, setup time.Duration
	// steal is the CPU time the hypervisor gave to other guests while
	// this machine's CPUs had work to run.
	steal          time.Duration
	peakHeap       uint64
	allocated      uint64
	executions     int
	execsToAllBugs int
	ops            int64
}

// timeRep runs one untraced repetition and measures it.
func (b *bencher) timeRep(w *workload, seed int64) (sample, []campaign, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	hw := startHeapWatcher()
	steal0 := stealTime()
	start := time.Now()
	cs, err := w.run(b.env(seed, 0))
	wall := time.Since(start)
	steal := stealTime() - steal0
	peak := hw.stop()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return sample{}, nil, err
	}
	s := sample{
		wall: wall, cpu: cpu, setup: setupOf(cs), steal: steal,
		peakHeap: peak, allocated: after.TotalAlloc - before.TotalAlloc,
	}
	for _, c := range cs {
		s.executions += c.res.Executions
		s.execsToAllBugs += c.res.ExecutionsToAllBugs
		s.ops += c.res.Ops
	}
	return s, cs, nil
}

// granted is the share of the CPU time a span of work asked for that the
// hypervisor granted: cpu/(cpu+steal). Steal is counted over all the
// machine's CPUs, and only while a CPU has work; taking it as the same
// share of every busy CPU's time makes it that share of the process's own
// demand too. It is 1 where steal is not reported.
func granted(cpu, steal time.Duration) float64 {
	if cpu+steal <= 0 {
		return 1
	}
	return float64(cpu) / float64(cpu+steal)
}

// unstolenWall is the repetition's wall time less the part of it the
// hypervisor gave to other guests. On a shared virtual machine steal
// swings from nothing to a third of the time from one minute to the
// next, and no change to the program can move it.
func (s sample) unstolenWall() float64 {
	return s.wall.Seconds() * granted(s.cpu, s.steal)
}

// timed measures a workload for the given time and reports its
// end-to-end metrics. Repetitions whose verdict differs from the
// reference count as failed and are not timing samples.
func (b *bencher) timed(w *workload, seed int64, seconds float64) (*result, error) {
	// One untimed repetition lets caches fill and the heap reach its
	// working size before timing starts.
	if _, err := w.run(b.env(repSeed(seed, -1), 0)); err != nil {
		return nil, err
	}
	var setups []float64
	var samples []sample
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		for i := 0; i < probesPerRep && !w.setupFromReps; i++ {
			cs, err := w.run(b.env(repSeed(seed, -2-rep*probesPerRep-i), 1))
			if err != nil {
				return nil, err
			}
			setups = append(setups, setupOf(cs).Seconds())
		}
		s, cs, err := b.timeRep(w, repSeed(seed, rep))
		if err != nil {
			return nil, err
		}
		bad := b.checkAll(w, cs)
		attempted += len(cs)
		failed += bad
		if bad > 0 {
			continue
		}
		samples = append(samples, s)
		if w.setupFromReps {
			setups = append(setups, s.setup.Seconds())
		}
	}
	fmt.Fprintf(b.log, "perfbench: %s: %d timed repetitions, %d set-up samples\n", w.name, len(samples), len(setups))
	res := &result{Correct: failed == 0 && len(samples) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if len(samples) == 0 {
		return res, nil
	}
	of := func(f func(s sample) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return xs
	}
	// Set-up probes last milliseconds, below the resolution of the steal
	// counter, so they are scaled by the share granted over the run.
	var cpu, steal time.Duration
	for _, s := range samples {
		cpu += s.cpu
		steal += s.steal
	}
	res.Metrics = map[string]metric{
		"wall_s":             {median(of(sample.unstolenWall)), "s"},
		"execs_per_s":        {median(of(func(s sample) float64 { return float64(s.executions) / s.unstolenWall() })), "1/s"},
		"ops_per_s":          {median(of(func(s sample) float64 { return float64(s.ops) / s.unstolenWall() })), "1/s"},
		"cpu_s":              {median(of(func(s sample) float64 { return s.cpu.Seconds() })), "s"},
		"peak_heap_mb":       {median(of(func(s sample) float64 { return float64(s.peakHeap) / 1e6 })), "MB"},
		"alloc_bytes_per_op": {median(of(func(s sample) float64 { return float64(s.allocated) / float64(s.ops) })), "B/op"},
		"setup_s":            {median(setups) * granted(cpu, steal), "s"},
		// Random campaigns find their last bug at a seed-dependent
		// execution, so the count is averaged over the run's repetitions.
		"execs_to_all_bugs": {mean(of(func(s sample) float64 { return float64(s.execsToAllBugs) })), "count"},
		"executions":        {median(of(func(s sample) float64 { return float64(s.executions) })), "count"},
		"passed_share":      {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	return res, nil
}

// cpuTime is the user plus system CPU time of this process and of its
// reaped children (isolated-random's worker processes).
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // nor for RUSAGE_CHILDREN
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// stealTime is the machine's total steal time, from the first line of
// /proc/stat, or 0 where the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// heapWatcher samples runtime.MemStats.HeapInuse every 10ms and keeps
// the high-water mark.
type heapWatcher struct {
	quit, done chan struct{}
	peak       uint64
}

func startHeapWatcher() *heapWatcher {
	hw := &heapWatcher{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hw.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			hw.peak = max(hw.peak, ms.HeapInuse)
			select {
			case <-hw.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return hw
}

// stop halts the sampler, takes one last sample, and returns the peak.
func (hw *heapWatcher) stop() uint64 {
	close(hw.quit)
	<-hw.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return max(hw.peak, ms.HeapInuse)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-th percentile (0-100) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}
