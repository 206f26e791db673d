package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// cli runs the command with args, returning exit code and both streams.
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCLIFindsFigure2(t *testing.T) {
	code, out, _ := cli(t, "-mode", "mc", "../../testdata/figure2.pm")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (violations found)\n%s", code, out)
	}
	for _, want := range []string{"robustness violation", "missing flush", "fix: insert flush+drain"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLICleanProgram(t *testing.T) {
	code, out, _ := cli(t, "-mode", "mc", "../../testdata/figure2_fixed.pm")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "no robustness violations found") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCLIFix(t *testing.T) {
	code, out, errOut := cli(t, "-fix", "-mode", "mc", "../../testdata/figure2.pm")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "flushopt x;") || !strings.Contains(out, "sfence;") {
		t.Fatalf("repaired program missing flushes:\n%s", out)
	}
	if !strings.Contains(out, "// inserted") {
		t.Fatalf("fix log missing:\n%s", out)
	}
}

func TestCLITrace(t *testing.T) {
	code, out, _ := cli(t, "-trace", "../../testdata/figure2.pm")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, want := range []string{"sub-execution e1", "crash C1", "events:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestCLIRandomMode(t *testing.T) {
	code, out, _ := cli(t, "-mode", "random", "-execs", "300", "-seed", "5", "../../testdata/figure7.pm")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "x = 1") {
		t.Fatalf("Figure 7 bug not localized:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	if code, _, _ := cli(t); code != 2 {
		t.Fatal("missing file must exit 2")
	}
	if code, _, errOut := cli(t, "nonexistent.pm"); code != 2 || !strings.Contains(errOut, "psan:") {
		t.Fatalf("unreadable file must exit 2: %d %q", code, errOut)
	}
	if code, _, _ := cli(t, "-mode", "bogus", "../../testdata/figure2.pm"); code != 2 {
		t.Fatal("bad mode must exit 2")
	}
}

func TestCLIDeadlinePartial(t *testing.T) {
	// A 1ns deadline is observed before any execution is claimed, so the
	// run is deterministically empty and partial: exit 3.
	code, out, _ := cli(t, "-mode", "mc", "-deadline", "1ns", "../../testdata/figure2.pm")
	if code != exitPartial {
		t.Fatalf("exit = %d, want %d (partial)\n%s", code, exitPartial, out)
	}
	for _, want := range []string{"PARTIAL: deadline", "partial coverage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLICheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	code, out, errOut := cli(t, "-mode", "random", "-execs", "200", "-seed", "5",
		"-deadline", "1ns", "-checkpoint", ckpt, "../../testdata/figure7.pm")
	if code != exitPartial {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitPartial, out, errOut)
	}
	if !strings.Contains(out, "checkpoint written") {
		t.Fatalf("checkpoint not written:\n%s\n%s", out, errOut)
	}
	// Resuming with no deadline completes the campaign and finds the
	// figure7 bug (same outcome as TestCLIRandomMode's full run).
	code, out, errOut = cli(t, "-mode", "random", "-execs", "200", "-seed", "5",
		"-resume", ckpt, "../../testdata/figure7.pm")
	if code != exitViolations {
		t.Fatalf("resumed exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitViolations, out, errOut)
	}
	if !strings.Contains(out, "x = 1") {
		t.Fatalf("resumed run did not localize the figure7 bug:\n%s", out)
	}
	// A checkpoint for the wrong program is rejected before exploring.
	code, _, errOut = cli(t, "-mode", "random", "-execs", "200", "-seed", "5",
		"-resume", ckpt, "../../testdata/figure2.pm")
	if code != exitInternal || !strings.Contains(errOut, "-resume") {
		t.Fatalf("mismatched resume must exit %d: %d %q", exitInternal, code, errOut)
	}
	// A windowed model-check checkpoint resumes under the same window
	// and completes the campaign an uninterrupted windowed run covers.
	wckpt := filepath.Join(t.TempDir(), "window.ckpt")
	code, out, errOut = cli(t, "-mode", "mc", "-window", "4", "-deadline", "1ns",
		"-checkpoint", wckpt, "../../testdata/figure2.pm")
	if code != exitPartial || !strings.Contains(out, "checkpoint written") {
		t.Fatalf("windowed cut: exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitPartial, out, errOut)
	}
	code, out, errOut = cli(t, "-mode", "mc", "-window", "4", "-resume", wckpt, "../../testdata/figure2.pm")
	if code != exitViolations || !strings.Contains(out, "9 executions") {
		t.Fatalf("windowed resume: exit = %d, want %d with 9 executions\nstdout:\n%s\nstderr:\n%s",
			code, exitViolations, out, errOut)
	}
}

func TestCLIMaxExecsAlias(t *testing.T) {
	code, out, _ := cli(t, "-mode", "random", "-max-execs", "300", "-seed", "5", "../../testdata/figure7.pm")
	if code != exitViolations {
		t.Fatalf("exit = %d, want %d\n%s", code, exitViolations, out)
	}
	if !strings.Contains(out, "300 executions") {
		t.Fatalf("-max-execs did not bound the run:\n%s", out)
	}
}

func TestCLIDump(t *testing.T) {
	code, out, _ := cli(t, "-dump", "-mode", "mc", "../../testdata/sameline.pm")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(out, "sameline x y;") {
		t.Fatalf("dump missing structure:\n%s", out)
	}
}

func TestCLIModelFlag(t *testing.T) {
	// Under strict persistency no stale post-crash read is reachable, so
	// even the buggy figure2 program is robust.
	code, out, _ := cli(t, "-mode", "mc", "-model", "strict", "../../testdata/figure2.pm")
	if code != 0 {
		t.Fatalf("strict exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "no robustness violations found") {
		t.Fatalf("strict output:\n%s", out)
	}
	// ptsosyn is observationally equivalent to px86: same verdict.
	code, out, _ = cli(t, "-mode", "mc", "-model", "ptsosyn", "../../testdata/figure2.pm")
	if code != 1 {
		t.Fatalf("ptsosyn exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "robustness violation") {
		t.Fatalf("ptsosyn output:\n%s", out)
	}
	// An unknown backend is rejected up front, naming the registered ones.
	code, _, errOut := cli(t, "-model", "epoch-nvm", "../../testdata/figure2.pm")
	if code != 2 || !strings.Contains(errOut, "px86") {
		t.Fatalf("unknown model: exit %d, stderr %q", code, errOut)
	}
}

func TestCLICheckpointModelMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	code, out, errOut := cli(t, "-mode", "random", "-execs", "200", "-seed", "5",
		"-deadline", "1ns", "-checkpoint", ckpt, "../../testdata/figure7.pm")
	if code != exitPartial {
		t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitPartial, out, errOut)
	}
	// Verdicts are model-relative: a checkpoint taken under px86 must be
	// rejected when resumed under another backend.
	code, _, errOut = cli(t, "-mode", "random", "-execs", "200", "-seed", "5",
		"-resume", ckpt, "-model", "strict", "../../testdata/figure7.pm")
	if code != exitInternal || !strings.Contains(errOut, "model") {
		t.Fatalf("mismatched model resume must exit %d naming the model: %d %q",
			exitInternal, code, errOut)
	}
}

// buildWorker compiles psan-worker for the -isolate tests.
func buildWorker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "psan-worker")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/psan-worker")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build psan-worker: %v\n%s", err, out)
	}
	return bin
}

var elapsedRe = regexp.MustCompile(`, [^,]* total`)

// normalize strips the nondeterministic parts of a run summary: elapsed
// time and the scheduling-diagnostic line (redelivery tallies) that the
// determinism contract explicitly excludes.
func normalize(s string) string {
	var keep []string
	for _, line := range strings.Split(elapsedRe.ReplaceAllString(s, ""), "\n") {
		if strings.HasPrefix(line, "process isolation:") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestCLIIsolate runs a campaign in worker processes and asserts the
// report is byte-identical (modulo timing) to the in-process run's.
func TestCLIIsolate(t *testing.T) {
	t.Setenv("PSAN_WORKER_BIN", buildWorker(t))
	codeIso, outIso, errIso := cli(t, "-isolate", "-mode", "mc", "-workers", "4", "../../testdata/figure2.pm")
	if codeIso != exitViolations {
		t.Fatalf("isolated exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", codeIso, exitViolations, outIso, errIso)
	}
	code, out, _ := cli(t, "-mode", "mc", "-workers", "1", "../../testdata/figure2.pm")
	if code != exitViolations {
		t.Fatalf("in-process exit = %d, want %d", code, exitViolations)
	}
	if got, want := normalize(outIso), normalize(out); got != want {
		t.Errorf("isolated output differs from in-process:\n--- isolated ---\n%s\n--- in-process ---\n%s", got, want)
	}
}

// TestCLIIsolateDegraded: an unspawnable worker binary degrades the
// campaign to in-process execution — flagged in the report and in the
// exit code — instead of failing it.
func TestCLIIsolateDegraded(t *testing.T) {
	t.Setenv("PSAN_WORKER_BIN", "/nonexistent/psan-worker")
	code, out, _ := cli(t, "-isolate", "-mode", "mc", "../../testdata/figure2_fixed.pm")
	if code != exitDegraded {
		t.Fatalf("exit = %d, want %d\n%s", code, exitDegraded, out)
	}
	if !strings.Contains(out, "DEGRADED") {
		t.Fatalf("degraded run not flagged:\n%s", out)
	}
	if !strings.Contains(out, "no robustness violations found") {
		t.Fatalf("verdict missing:\n%s", out)
	}
}
