// Command validate-trace checks observability artifacts: the Chrome
// trace_event JSON written by -trace-out, and (with -metrics) an
// OpenMetrics text exposition scraped from /metrics or written by
// psan-litmus -metrics-out.
//
//	go run ./internal/obs/validate/cmd trace.json
//	go run ./internal/obs/validate/cmd -metrics metrics.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/obs/validate"
)

func main() {
	metrics := flag.Bool("metrics", false, "validate an OpenMetrics exposition instead of a trace")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: validate-trace <chrome-trace.json>")
		fmt.Fprintln(os.Stderr, "       validate-trace -metrics <exposition.txt>")
	}
	flag.Parse()
	args := flag.Args()
	if len(args) != 1 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "validate-trace: open: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if *metrics {
		ms, err := validate.Exposition(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "validate-trace: %s: %v\n", args[0], err)
			os.Exit(1)
		}
		fmt.Printf("exposition ok: %d families, %d samples\n", ms.Families, ms.Samples)
		return
	}
	cs, err := validate.Chrome(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "validate-trace: %s: %v\n", args[0], err)
		os.Exit(1)
	}
	fmt.Printf("chrome trace ok: %d events, %d spans, %d timelines, %d processes\n",
		cs.Events, cs.Spans, cs.Timeline, cs.Procs)
}
