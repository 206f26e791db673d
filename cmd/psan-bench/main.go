// Command psan-bench regenerates the paper's evaluation tables on the
// benchmark ports:
//
//	psan-bench -table 1          # tool comparison (live litmus demo)
//	psan-bench -table 2          # robustness violations per benchmark
//	psan-bench -table 3          # PSan vs Jaaru overhead + discovery
//	psan-bench -table compare    # §6.4 comparison vs baselines
//	psan-bench -table diff       # cross-model differential checks
//	psan-bench -table all        # everything
//	psan-bench -violations CCEH  # detailed report with fixes
//	psan-bench -model ptsosyn -table 2   # tables under another backend
//	psan-bench -workload redis -ops 200000 -window 64   # stream a
//	                             # server-class workload through one
//	                             # execution with a bounded trace window,
//	                             # reporting throughput and peak heap
//
// An interrupt (^C) or an expired -deadline degrades gracefully: the
// in-flight exploration drains, partial tables are rendered, and the
// -cpuprofile/-memprofile files are flushed through the same exit path
// a completed run takes — a profile of an aborted campaign is still a
// valid profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/benchmarks/bench"
	"repro/internal/benchmarks/redislog"
	"repro/internal/benchmarks/slabcache"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code := runCtx(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	return runCtx(context.Background(), args, stdout, stderr)
}

// profiler owns the -cpuprofile/-memprofile lifecycle. Every return
// path out of runCtx flushes through its single deferred stop() — an
// early deadline abort or interrupt produces the same complete profile
// files a full run does.
type profiler struct {
	cpuFile *os.File
	memPath string
	stderr  io.Writer
}

func (p *profiler) start(cpuPath, memPath string) error {
	p.memPath = memPath
	if cpuPath == "" {
		return nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// stop flushes both profiles; it is the one exit path for profile data.
func (p *profiler) stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintf(p.stderr, "psan-bench: %v\n", err)
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			fmt.Fprintf(p.stderr, "psan-bench: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // surface only live allocations
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(p.stderr, "psan-bench: %v\n", err)
		}
	}
}

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("psan-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to regenerate: 1, 2, 3, compare, diff, or all")
	model := fs.String("model", "", "persistency-model backend for tables 2/3/compare/violations: "+strings.Join(persist.Names(), ", "))
	execs := fs.Int("execs", 0, "override executions per benchmark (0: per-port default)")
	seed := fs.Int64("seed", 1, "exploration seed")
	workers := fs.Int("workers", 0, "parallel exploration workers (0: all CPUs, 1: serial); results are identical for any count")
	violations := fs.String("violations", "", "print the detailed violation report for one benchmark")
	deadline := fs.Duration("deadline", 0, "wall-clock budget per benchmark run (0: none); expired runs report partial coverage")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file; flushed even when a deadline or ^C aborts the run")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit; flushed even when a deadline or ^C aborts the run")
	tel := obs.RegisterCLIFlags(fs, "psan-bench", true)
	window := fs.Int("window", 0, "bounded trace window for -workload runs: retire trace history every N operations, keeping memory flat (0: unbounded; verdicts are identical either way)")
	workloadName := fs.String("workload", "", "stream a server-class workload instead of tables: redis (append-log+dict) or slab (slab cache)")
	wlVariant := fs.String("variant", "fixed", "workload variant: fixed or buggy")
	wlOps := fs.Int("ops", 200_000, "workload requests per execution")
	wlKeys := fs.Int("keys", 4096, "workload keyspace size")
	wlZipf := fs.Float64("zipf", 1.2, "workload Zipfian key skew (<= 1: uniform keyspace)")
	wlReadPct := fs.Int("read-pct", 50, "workload GET percentage, 0-100")
	wlThreads := fs.Int("threads", 2, "workload client threads per wave")
	wlChurn := fs.Int("churn", 0, "workload thread churn: retire each client thread after N requests and spawn a fresh wave (0: off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "psan-bench: -workers must be >= 0\n")
		return 2
	}

	prof := &profiler{stderr: stderr}
	if err := prof.start(*cpuprofile, *memprofile); err != nil {
		fmt.Fprintf(stderr, "psan-bench: %v\n", err)
		return 2
	}
	defer prof.stop()

	if _, err := persist.New(persist.Config{Name: *model}); err != nil {
		fmt.Fprintf(stderr, "psan-bench: %v\n", err)
		return 2
	}
	observer, err := tel.Start(stderr, 0)
	if err != nil {
		fmt.Fprintf(stderr, "psan-bench: %v\n", err)
		return 2
	}
	defer func() {
		if err := tel.Finish(); err != nil {
			fmt.Fprintf(stderr, "psan-bench: %v\n", err)
			code = 2
		}
	}()
	if *workloadName != "" {
		if *window < 0 {
			fmt.Fprintf(stderr, "psan-bench: -window must be >= 0\n")
			return 2
		}
		wcfg := workload.Config{
			Seed: *seed, Ops: *wlOps, Keys: *wlKeys, ZipfS: *wlZipf,
			ReadPct: *wlReadPct, Threads: *wlThreads, Churn: *wlChurn,
		}
		return runWorkloadCmd(ctx, *workloadName, *wlVariant, wcfg, workloadRunOpts{
			model: *model, window: *window, execs: *execs, seed: *seed, obs: observer,
		}, stdout, stderr)
	}
	opt := report.Options{
		Executions: *execs, Seed: *seed, Workers: *workers, Deadline: *deadline, Model: *model,
		Obs: observer, Context: ctx,
	}
	if *violations != "" {
		out, err := report.Violations(*violations, opt)
		if err != nil {
			fmt.Fprintf(stderr, "psan-bench: %v\n", err)
			return 2
		}
		fmt.Fprint(stdout, out)
		return 0
	}
	switch *table {
	case "1":
		_, text := report.Table1()
		fmt.Fprintln(stdout, text)
	case "2":
		fmt.Fprintln(stdout, report.Table2(opt).Render())
	case "3":
		fmt.Fprintln(stdout, report.RenderTable3(report.Table3(opt)))
	case "compare":
		fmt.Fprintln(stdout, report.RenderComparison(report.Comparison(opt)))
	case "diff":
		fmt.Fprintln(stdout, report.RenderDifferential(report.Differential(opt)))
	case "all":
		_, text := report.Table1()
		fmt.Fprintln(stdout, text)
		fmt.Fprintln(stdout, report.Table2(opt).Render())
		fmt.Fprintln(stdout, report.RenderTable3(report.Table3(opt)))
		fmt.Fprintln(stdout, report.RenderComparison(report.Comparison(opt)))
		fmt.Fprintln(stdout, report.RenderDifferential(report.Differential(opt)))
	default:
		fmt.Fprintf(stderr, "psan-bench: unknown table %q\n", *table)
		return 2
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "psan-bench: interrupted; tables above reflect partial coverage")
		return 3
	}
	return 0
}

// heapWatcher samples runtime.MemStats.HeapInuse on a short ticker and
// keeps the high-water mark. One watcher brackets one measured run; the
// 10ms cadence is coarse enough that ReadMemStats' stop-the-world cost
// stays invisible next to the workloads it brackets.
type heapWatcher struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
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
			if ms.HeapInuse > hw.peak {
				hw.peak = ms.HeapInuse
			}
			select {
			case <-hw.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return hw
}

// stop halts the sampler and returns the high-water mark, folding in
// one final sample so short runs are never measured as zero.
func (hw *heapWatcher) stop() uint64 {
	close(hw.quit)
	<-hw.done
	return hw.peak
}

// workloadRunOpts carries the non-workload knobs of a -workload run.
type workloadRunOpts struct {
	model  string
	window int
	execs  int
	seed   int64
	obs    *obs.Observer
}

// runWorkloadCmd streams one server-class workload through the
// exploration pipeline: a random-mode campaign (default one execution)
// whose every execution issues wcfg.Ops requests, with the HeapInuse
// high-water sampled across the run. The "peak heap:" line is the
// machine-readable contract the CI long-trace job greps.
func runWorkloadCmd(ctx context.Context, name, variant string, wcfg workload.Config, ro workloadRunOpts, stdout, stderr io.Writer) int {
	v := bench.Fixed
	switch variant {
	case "fixed":
	case "buggy":
		v = bench.Buggy
	default:
		fmt.Fprintf(stderr, "psan-bench: unknown -variant %q (want fixed or buggy)\n", variant)
		return 2
	}
	var prog explore.Program
	switch name {
	case "redis":
		prog = redislog.BuildWorkload(v, wcfg)
	case "slab":
		prog = slabcache.BuildWorkload(v, wcfg)
	default:
		fmt.Fprintf(stderr, "psan-bench: unknown -workload %q (want redis or slab)\n", name)
		return 2
	}
	execs := ro.execs
	if execs <= 0 {
		execs = 1
	}
	opts := explore.Options{
		Mode:       explore.Random,
		Executions: execs,
		Seed:       ro.seed,
		Context:    ctx,
		Model:      persist.Config{Name: ro.model, Window: ro.window},
		Obs:        ro.obs,
		// Each request is a bounded burst of pmem operations (stores,
		// per-line flushes, fences, the CAS publish); 64 per request
		// overestimates the deepest slab class with headroom.
		OpLimit: wcfg.Ops*64 + 4096,
	}
	hw := startHeapWatcher()
	res := explore.Run(prog, opts)
	peak := hw.stop()
	fmt.Fprint(stdout, report.RunSummary(res))
	fmt.Fprintf(stdout, "peak heap: %d bytes\n", peak)
	if v == bench.Fixed && len(res.Violations) > 0 {
		fmt.Fprintf(stderr, "psan-bench: fixed workload reported %d violation(s)\n", len(res.Violations))
		return 1
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintln(stderr, "psan-bench: interrupted; results above reflect partial coverage")
		return 3
	}
	return 0
}
