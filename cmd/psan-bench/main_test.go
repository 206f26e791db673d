package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/validate"
)

func TestTable1CLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-table", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	for _, want := range []string{"PSan", "Robustness", "Witcher", "Pmemcheck"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table 1 missing %q:\n%s", want, out.String())
		}
	}
}

func TestViolationsCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-violations", "P-CLHT", "-execs", "150"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "clht_t::table") {
		t.Fatalf("violations report missing row #31:\n%s", out.String())
	}
}

func TestBadArgsCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-table", "9"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if code := run([]string{"-violations", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestModelFlagCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-violations", "P-CLHT", "-execs", "150", "-model", "ptsosyn"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "clht_t::table") {
		t.Fatalf("ptsosyn violations report missing row #31:\n%s", out.String())
	}
	var out2, errOut2 bytes.Buffer
	if code := run([]string{"-model", "bogus", "-table", "2"}, &out2, &errOut2); code != 2 {
		t.Fatalf("unknown model must exit 2")
	}
	if !strings.Contains(errOut2.String(), "px86") {
		t.Fatalf("error does not list backends:\n%s", errOut2.String())
	}
}

func TestDiffTableCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-table", "diff", "-execs", "120"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	for _, want := range []string{"px86 vs ptsosyn", "strict verdict", "all models agree"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("diff table missing %q:\n%s", want, out.String())
		}
	}
}

func TestTraceOutCLI(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-table", "2", "-execs", "20", "-trace-out", tracePath}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cs, err := validate.Chrome(f)
	if err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if cs.Spans < 2 || cs.Timeline < 2 {
		t.Fatalf("trace too thin: %+v (want spans on the tool and worker timelines)", cs)
	}
	if _, err := os.Stat(tracePath + ".jsonl"); !os.IsNotExist(err) {
		t.Fatalf("-trace-out wrote a second file %s.jsonl (stat err %v)", tracePath, err)
	}
}

func TestMetricsAddrAndProgressCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-table", "2", "-execs", "20", "-metrics-addr", "127.0.0.1:0", "-progress", "1ns"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "psan-bench: metrics at http://127.0.0.1:") {
		t.Fatalf("metrics endpoint notice missing:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "progress:") {
		t.Fatalf("no progress tick on stderr:\n%s", errOut.String())
	}
}
