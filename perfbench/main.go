// Command perfbench is the repository's benchmark. It runs one named
// workload at Workers=1 for a fixed time, checks every campaign's verdict
// against the stored reference (reference.json), and prints one JSON
// result line as the last line of standard output:
//
//	perfbench -workload mc-table2 -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics of untraced
// runs; with -trace 1 it carries the per-layer metrics of a separate
// traced run over every workload, and a Chrome trace is written next to
// this executable. run.py builds this program and the psan-worker
// binary next to it and is the entry point; README.md documents the
// workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

//go:embed reference.json
var referenceJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line JSON report.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed repetitions run")
	traceFlag := fs.Int("trace", 0, "0: timed untraced run (end-to-end metrics); 1: traced run (per-layer metrics)")
	record := fs.String("record-reference", "", "recompute the reference verdicts, write them to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The psan-worker binary and the traced run's Chrome trace live next
	// to this executable, in the build directory.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	dir := filepath.Dir(exe)
	workerBin := filepath.Join(dir, "psan-worker")
	if *record != "" {
		if err := recordReference(*record, workerBin, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference(referenceJSON)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive and -trace 0 or 1\n")
		return 2
	}
	b := &bencher{ref: ref, workerBin: workerBin, log: stderr}
	var res *result
	if *traceFlag == 1 {
		res, err = b.traced(*seed, filepath.Join(dir, "perfbench-trace.json"))
	} else {
		res, err = b.timed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
