// Command psan-litmus replays the paper's worked examples (Figures 1,
// 2, 4–8, 11, 12, plus the §1.1 flush-semantics corners) and narrates
// PSan's potential-crash-interval derivations:
//
//	psan-litmus                  # run every scenario
//	psan-litmus fig7             # run one scenario
//	psan-litmus -model strict    # replay under another persistency model
//
// Under a non-weak model (strict) the scripted stale reads are
// unreachable; the expected verdict for every scenario is then
// "robust", and the narration shows which substitutions were made.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/litmus"
	"repro/internal/obs"
	"repro/internal/persist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psan-litmus", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "", "persistency-model backend: "+strings.Join(persist.Names(), ", "))
	window := fs.Int("window", 0, "bounded trace window: retire trace history every N operations (0: unbounded; verdicts are identical either way)")
	metricsOut := fs.String("metrics-out", "", "write the backend op counters to this file as an OpenMetrics text exposition")
	tel := obs.RegisterCLIFlags(fs, "psan-litmus", false)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: psan-litmus [-model name] [figure]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *window < 0 {
		fmt.Fprintf(stderr, "psan-litmus: -window must be >= 0\n")
		return 2
	}
	cfg := persist.Config{Name: *model, Window: *window}
	if _, err := persist.New(cfg); err != nil {
		fmt.Fprintf(stderr, "psan-litmus: %v\n", err)
		return 2
	}
	// The scenarios build worlds from cfg, so the backend's per-model
	// counters land in the observer's registry.
	observer, err := tel.Start(stderr, 0)
	if err != nil {
		fmt.Fprintf(stderr, "psan-litmus: %v\n", err)
		return 2
	}
	defer tel.Finish() // without -trace-out, Finish cannot fail
	if *metricsOut != "" && observer == nil {
		observer = &obs.Observer{Metrics: obs.NewRegistry()}
	}
	cfg.Obs = observer
	scenarios := litmus.Scenarios()
	if fs.NArg() > 0 {
		sc := litmus.ByName(fs.Arg(0))
		if sc == nil {
			fmt.Fprintf(stderr, "psan-litmus: unknown figure %q; available:\n", fs.Arg(0))
			for _, s := range scenarios {
				fmt.Fprintf(stderr, "  %-18s %s\n", s.Name, s.Title)
			}
			return 2
		}
		scenarios = []litmus.Scenario{*sc}
	}
	bad := false
	for _, sc := range scenarios {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", sc.Name, sc.Title)
		vs := sc.RunModel(stdout, cfg)
		want := sc.Expect(cfg)
		verdict := "robust"
		if len(vs) > 0 {
			verdict = fmt.Sprintf("NOT robust (%d violation(s))", len(vs))
		}
		fmt.Fprintf(stdout, "verdict: %s (expected: violation=%v)\n\n", verdict, want)
		if (len(vs) > 0) != want {
			bad = true
		}
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(stderr, "psan-litmus: %v\n", err)
			return 2
		}
		err = obs.WriteOpenMetrics(f, observer.Metrics.Snapshot())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "psan-litmus: -metrics-out: %v\n", err)
			return 2
		}
	}
	if bad {
		return 1
	}
	return 0
}
