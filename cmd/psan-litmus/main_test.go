package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/validate"
)

func TestAllScenariosPass(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	for _, want := range []string{"fig2", "fig7", "fig8", "rmw-drain", "verdict: NOT robust", "verdict: robust"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestSingleScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"fig4"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "[2, 4)") {
		t.Fatalf("fig4 narration missing interval:\n%s", out.String())
	}
}

func TestUnknownScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"fig99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "available:") {
		t.Fatalf("stderr missing scenario list:\n%s", errOut.String())
	}
}

func TestModelFlag(t *testing.T) {
	// strict: every scenario becomes robust; the run must still exit 0
	// because the expected verdict adapts with the model.
	var out, errOut bytes.Buffer
	if code := run([]string{"-model", "strict"}, &out, &errOut); code != 0 {
		t.Fatalf("strict exit = %d\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "NOT robust") {
		t.Fatalf("strict run reported a violation:\n%s", out.String())
	}
	// ptsosyn: identical expectations to the default px86 run.
	var out2, errOut2 bytes.Buffer
	if code := run([]string{"-model", "ptsosyn"}, &out2, &errOut2); code != 0 {
		t.Fatalf("ptsosyn exit = %d\n%s", code, out2.String())
	}
	if !strings.Contains(out2.String(), "NOT robust") {
		t.Fatalf("ptsosyn run found no violations:\n%s", out2.String())
	}
	var out3, errOut3 bytes.Buffer
	if code := run([]string{"-model", "nope"}, &out3, &errOut3); code != 2 {
		t.Fatalf("unknown model must exit 2")
	}
	if !strings.Contains(errOut3.String(), "px86") {
		t.Fatalf("error does not list backends:\n%s", errOut3.String())
	}
}

func TestMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.om")
	var out, errOut bytes.Buffer
	if code := run([]string{"-metrics-out", path, "fig7"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d\n%s", code, errOut.String())
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := validate.Exposition(bytes.NewReader(text)); err != nil {
		t.Fatalf("-metrics-out exposition invalid: %v\n%s", err, text)
	}
	if !strings.Contains(string(text), "# TYPE psan_persist_") {
		t.Fatalf("-metrics-out has no psan_persist_* family:\n%s", text)
	}
}
