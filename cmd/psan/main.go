// Command psan checks a persistent-memory test program (written in the
// paper's Figure 9 language, see internal/lang) for robustness
// violations, exploring crash points and post-crash reads either
// randomly or exhaustively:
//
//	psan [-mode random|mc] [-execs N] [-seed S] [-workers W] [-model M] [-dump] program.pm
//	psan -deadline 30s -checkpoint run.ckpt program.pm   # bounded campaign
//	psan -resume run.ckpt program.pm                     # continue it
//	psan -isolate -workers 4 program.pm                  # fault-tolerant
//	                           # campaign in worker OS processes (see
//	                           # -lease, -retries; needs psan-worker)
//	psan -fix program.pm       # apply the suggested fixes, print the
//	                           # repaired program
//	psan -trace program.pm     # dump one execution's event trace
//
// A campaign bounded by -deadline or -max-execs (or interrupted with
// ^C) degrades gracefully: it reports the violations found so far plus
// coverage statistics, and -checkpoint saves its resume state.
//
// Exit status:
//
//	0  the program is robust (no violations; exploration completed)
//	1  robustness violations found (or -fix could not reach a clean
//	   program) — reported even from a partial run
//	2  usage, parse, or internal error
//	3  partial run: a deadline, budget, or interrupt stopped
//	   exploration before the frontier was exhausted, and no
//	   violations were found in the explored prefix
//	4  isolation trouble (-isolate only): work units were quarantined
//	   as poison after exhausting their retry budget, or the campaign
//	   degraded to in-process execution because worker processes could
//	   not be spawned — no violations found, but the run's coverage or
//	   isolation guarantee was compromised (violations still exit 1)
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
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/repair"
	"repro/internal/report"
)

// Exit codes (see the package comment).
const (
	exitRobust     = 0
	exitViolations = 1
	exitInternal   = 2
	exitPartial    = 3
	exitDegraded   = 4
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

func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("psan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "mc", "exploration mode: mc (model checking) or random")
	var execs int
	fs.IntVar(&execs, "execs", 10000, "execution budget (exact count in random mode, cap in mc mode)")
	fs.IntVar(&execs, "max-execs", 10000, "alias for -execs")
	seed := fs.Int64("seed", 1, "random-mode seed")
	workers := fs.Int("workers", 0, "parallel exploration workers (0: all CPUs, 1: serial); results are identical for any count")
	deadline := fs.Duration("deadline", 0, "wall-clock budget for the exploration; on expiry report partial results (exit 3)")
	stepTimeout := fs.Duration("step-timeout", 0, "per-execution wall-clock bound; a stuck execution is aborted, not the run")
	checkpointPath := fs.String("checkpoint", "", "write resume state to this file when the run stops early")
	resumePath := fs.String("resume", "", "resume a checkpointed campaign from this file")
	dump := fs.Bool("dump", false, "print the parsed program structure")
	fix := fs.Bool("fix", false, "apply PSan's suggested fixes until the program is clean and print it")
	dumpTrace := fs.Bool("trace", false, "dump one crash-free execution's event trace and exit")
	model := fs.String("model", "", "persistency-model backend: "+strings.Join(persist.Names(), ", "))
	window := fs.Int("window", 0, "bounded trace window: retire trace history every N operations, keeping memory flat on long executions (0: unbounded; a window turns the model-check reductions off; verdicts are identical either way)")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	tel := obs.RegisterCLIFlags(fs, "psan", true)
	flightOut := fs.String("flight-out", "", "write the campaign flight record (JSONL ring of redeliveries, quarantines, stop transitions) to this file on exit; recording is always on under -isolate and the ring is dumped to stderr on poison, quarantined executions, or SIGQUIT")
	isolate := fs.Bool("isolate", false, "run work units in isolated psan-worker OS processes: a worker crash, hang, or kill loses one unit, not the campaign (results identical to in-process runs)")
	lease := fs.Duration("lease", 10*time.Second, "with -isolate: heartbeat deadline per delivered unit; a silent worker is killed and its unit redelivered")
	retries := fs.Int("retries", 3, "with -isolate: redeliveries per failed unit before it is quarantined as poison (0: none)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: psan [flags] program.pm\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "psan: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface only live allocations
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "psan: %v\n", err)
			}
		}()
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "psan: %v\n", err)
		return 2
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "psan: %s: %v\n", fs.Arg(0), err)
		return 2
	}
	if *dump {
		fmt.Fprint(stdout, prog)
	}
	compiled := interp.New(fs.Arg(0), prog)
	if *window < 0 {
		fmt.Fprintf(stderr, "psan: -window must be >= 0\n")
		return exitInternal
	}
	modelCfg := persist.Config{Name: *model, Window: *window}
	if _, err := persist.New(modelCfg); err != nil {
		fmt.Fprintf(stderr, "psan: %v\n", err)
		return exitInternal
	}
	opts := explore.Options{
		Executions:  execs,
		Seed:        *seed,
		Workers:     *workers,
		Context:     ctx,
		Deadline:    *deadline,
		StepTimeout: *stepTimeout,
		Model:       modelCfg,
		Provenance:  true,
	}
	switch *mode {
	case "mc":
		opts.Mode = explore.ModelCheck
	case "random":
		opts.Mode = explore.Random
	default:
		fmt.Fprintf(stderr, "psan: unknown mode %q\n", *mode)
		return exitInternal
	}
	total := int64(0)
	if opts.Mode == explore.Random {
		total = int64(execs)
	}
	observer, err := tel.Start(stderr, total)
	if err != nil {
		fmt.Fprintf(stderr, "psan: %v\n", err)
		return exitInternal
	}
	defer func() {
		if err := tel.Finish(); err != nil {
			fmt.Fprintf(stderr, "psan: %v\n", err)
			code = exitInternal
		}
	}()
	// Every -isolate campaign carries a flight recorder: its ring is the
	// post-mortem for redeliveries and quarantines.
	var flight *obs.FlightRecorder
	if *flightOut != "" || *isolate {
		flight = obs.NewFlightRecorder(0)
		flight.SetPid(os.Getpid())
		if observer == nil {
			observer = &obs.Observer{}
		}
		observer.Flight = flight
		// SIGQUIT dumps the flight ring to stderr and keeps running, the
		// post-mortem a wedged campaign wants (^\ at the terminal).
		// signal.Stop does not close sigq, so the dumper ends on done and
		// run waits for it.
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		done, exited := make(chan struct{}), make(chan struct{})
		defer func() {
			signal.Stop(sigq)
			close(done)
			<-exited
		}()
		go func() {
			defer close(exited)
			for {
				select {
				case <-sigq:
					fmt.Fprintf(stderr, "psan: flight record (%d events):\n", flight.Total())
					flight.WriteJSONL(stderr)
				case <-done:
					return
				}
			}
		}()
	}
	opts.Obs = observer
	if *resumePath != "" {
		ck, err := explore.LoadCheckpoint(*resumePath)
		if err != nil {
			fmt.Fprintf(stderr, "psan: %v\n", err)
			return exitInternal
		}
		if err := ck.Validate(compiled.Name(), opts); err != nil {
			fmt.Fprintf(stderr, "psan: -resume: %v\n", err)
			return exitInternal
		}
		opts.Resume = ck
	}
	if *dumpTrace {
		w := pmem.NewWorld(pmem.Config{CrashTarget: -1, Seed: *seed, Model: modelCfg})
		for i, phase := range compiled.Phases() {
			w.SetCrashTarget(-1)
			w.RunPhase(phase)
			if i < len(compiled.Phases())-1 {
				w.Crash()
			}
		}
		w.M.Trace().Dump(stdout)
		fmt.Fprintln(stdout, w.M.Trace().Stats())
		return 0
	}
	if *fix {
		result, err := repair.Loop(fs.Arg(0), prog, opts, 20)
		if err != nil {
			fmt.Fprintf(stderr, "psan: %v\n", err)
			return 2
		}
		for _, a := range result.Applied {
			fmt.Fprintf(stdout, "// %s\n", a)
		}
		fmt.Fprint(stdout, lang.Format(result.Program))
		if !result.Clean {
			fmt.Fprintln(stderr, "psan: program still reports violations after repair")
			return 1
		}
		return 0
	}
	tracer := observer.Trace()
	campStart := tracer.Now()
	var res *explore.Result
	if *isolate {
		retry := dispatch.RetryPolicy{Retries: *retries, Seed: *seed}
		if *retries <= 0 {
			retry.Retries = -1 // flag 0 means "no redeliveries", not the policy default
		}
		res = dispatch.Run(dispatch.Options{
			Explore:     opts,
			Program:     compiled,
			ProgramPath: fs.Arg(0),
			Lease:       *lease,
			Retry:       retry,
		})
	} else {
		res = explore.Run(compiled, opts)
	}
	tracer.CompleteSince(0, "campaign", "campaign", campStart, -1)
	fmt.Fprint(stdout, report.RunSummary(res))
	for i, v := range res.Violations {
		fmt.Fprintf(stdout, "\n[%d] %s\n", i+1, v)
		fmt.Fprint(stdout, v.Prov.Narrative())
	}
	if res.Partial && *checkpointPath != "" {
		if res.Checkpoint == nil {
			fmt.Fprintln(stderr, "psan: no resumable checkpoint for this stop (re-run with a larger budget)")
		} else {
			cs := tracer.Now()
			err := res.Checkpoint.Save(*checkpointPath)
			tracer.CompleteSince(0, "campaign", "checkpoint-write", cs, -1)
			if err != nil {
				fmt.Fprintf(stderr, "psan: %v\n", err)
				return exitInternal
			}
			fmt.Fprintf(stdout, "checkpoint written to %s\n", *checkpointPath)
		}
	}
	if flight != nil {
		if *flightOut != "" {
			if err := flight.DumpFile(*flightOut); err != nil {
				fmt.Fprintf(stderr, "psan: -flight-out: %v\n", err)
				return exitInternal
			}
			fmt.Fprintf(stderr, "psan: flight record written to %s\n", *flightOut)
		} else if len(res.PoisonUnits) > 0 || len(res.ExecErrors) > 0 {
			// Something went wrong and nobody asked for a file: dump the
			// ring to stderr so the post-mortem is in the logs.
			fmt.Fprintf(stderr, "psan: flight record (%d events):\n", flight.Total())
			flight.WriteJSONL(stderr)
		}
	}
	if len(res.Violations) > 0 {
		return exitViolations
	}
	if !res.Partial {
		fmt.Fprintln(stdout, "no robustness violations found")
	}
	if len(res.PoisonUnits) > 0 || res.Degraded {
		return exitDegraded
	}
	if res.Partial {
		return exitPartial
	}
	return exitRobust
}
