package main

// End-to-end tests for the observability flags: -trace-out must emit
// trace files the validator accepts, -metrics-addr must bring up the
// endpoint, -progress must tick, and every reported violation must
// carry its provenance narrative.

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/validate"
)

func TestCLITraceOutWritesValidTraces(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	code, out, errOut := cli(t, "-mode", "mc", "-trace-out", tracePath, "../../testdata/figure2.pm")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	chrome, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer chrome.Close()
	cs, err := validate.Chrome(chrome)
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if cs.Spans == 0 || cs.Timeline < 2 {
		t.Fatalf("trace too thin: %+v (want spans on the campaign and worker timelines)", cs)
	}
	if _, err := os.Stat(tracePath + ".jsonl"); !os.IsNotExist(err) {
		t.Fatalf("-trace-out wrote a second file %s.jsonl (stat err %v)", tracePath, err)
	}
}

// TestCLITraceOutOnEveryPath: -fix and -trace return before the
// campaign path, and must still write the trace file.
func TestCLITraceOutOnEveryPath(t *testing.T) {
	for _, flag := range []string{"-fix", "-trace"} {
		tracePath := filepath.Join(t.TempDir(), "trace.json")
		code, out, errOut := cli(t, flag, "-trace-out", tracePath, "../../testdata/figure2.pm")
		if code != 0 {
			t.Fatalf("%s: exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", flag, code, out, errOut)
		}
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatalf("%s: %v", flag, err)
		}
		cs, err := validate.Chrome(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: chrome trace invalid: %v", flag, err)
		}
		if flag == "-fix" && cs.Timeline < 2 {
			t.Fatalf("-fix: trace %+v has no worker timeline; the repair loop's campaigns were not traced", cs)
		}
	}
}

func TestCLIViolationProvenance(t *testing.T) {
	code, out, _ := cli(t, "-mode", "mc", "../../testdata/figure2.pm")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	violations := strings.Count(out, "\n[")
	narratives := strings.Count(out, "provenance (")
	if violations == 0 || narratives != violations {
		t.Fatalf("%d violations but %d provenance narratives:\n%s", violations, narratives, out)
	}
	for _, want := range []string{"the racing store", "power failure ends sub-execution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("narrative missing %q:\n%s", want, out)
		}
	}
}

func TestCLIMetricsAddrAndProgress(t *testing.T) {
	code, _, errOut := cli(t,
		"-mode", "random", "-execs", "50", "-workers", "2",
		"-metrics-addr", "127.0.0.1:0", "-progress", "1ns",
		"../../testdata/figure2.pm")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "metrics at http://127.0.0.1:") {
		t.Fatalf("metrics endpoint notice missing:\n%s", errOut)
	}
	if !strings.Contains(errOut, "progress:") {
		t.Fatalf("no progress tick on stderr:\n%s", errOut)
	}
}

// TestCLIFlightOutLeaksNoGoroutine: every run with a flight recorder
// starts a SIGQUIT dumper goroutine, which must end when run returns.
// The first run is not counted: it also starts os/signal's watcher,
// which lives as long as the process.
func TestCLIFlightOutLeaksNoGoroutine(t *testing.T) {
	flightRun := func() {
		flightPath := filepath.Join(t.TempDir(), "flight.jsonl")
		code, out, errOut := cli(t, "-mode", "random", "-execs", "20", "-workers", "1",
			"-flight-out", flightPath, "../../testdata/figure2.pm")
		if code != 1 {
			t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
		}
	}
	flightRun()
	base := runtime.NumGoroutine()
	const runs = 5
	for i := 0; i < runs; i++ {
		flightRun()
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after %d -flight-out runs, %d before", n, runs, base)
	}
}
