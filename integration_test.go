package repro

// Integration tests over the shipped testdata programs: every .pm file
// is parsed, explored, and checked against the expected verdict; the
// non-robust ones are then run through the automated repair loop and
// must come out clean.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/repair"
)

// testdataPrograms maps each shipped program to its expected verdict
// and the exploration mode that decides it.
var testdataPrograms = []struct {
	file       string
	mode       explore.Mode
	executions int
	robust     bool
}{
	{"figure2.pm", explore.ModelCheck, 10000, false},
	{"figure2_fixed.pm", explore.ModelCheck, 10000, true},
	{"figure7.pm", explore.Random, 800, false},
	{"sameline.pm", explore.ModelCheck, 10000, true},
	{"counter.pm", explore.ModelCheck, 30000, false},
	{"crossdrain.pm", explore.ModelCheck, 10000, false},
}

func loadProgram(t *testing.T, name string) *lang.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Parse(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return prog
}

func TestTestdataVerdicts(t *testing.T) {
	for _, tc := range testdataPrograms {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			prog := loadProgram(t, tc.file)
			res := explore.Run(interp.New(tc.file, prog), explore.Options{
				Mode: tc.mode, Executions: tc.executions, Seed: 1,
			})
			if got := len(res.Violations) == 0; got != tc.robust {
				t.Fatalf("%s: robust=%v, want %v\nviolations: %v",
					tc.file, got, tc.robust, res.ViolationKeys())
			}
		})
	}
}

func TestTestdataRepairsToClean(t *testing.T) {
	for _, tc := range testdataPrograms {
		if tc.robust {
			continue
		}
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			prog := loadProgram(t, tc.file)
			res, err := repair.Loop(tc.file, prog, explore.Options{
				Mode: tc.mode, Executions: tc.executions, Seed: 1,
			}, 20)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Clean {
				t.Fatalf("%s not clean after %d rounds:\n%s",
					tc.file, res.Iterations, lang.Format(res.Program))
			}
			if len(res.Applied) == 0 {
				t.Fatalf("%s: no fixes applied", tc.file)
			}
			// The repaired source must mention flushes it inserted.
			if out := lang.Format(res.Program); !strings.Contains(out, "flushopt") {
				t.Fatalf("%s: repaired program has no inserted flush:\n%s", tc.file, out)
			}
		})
	}
}

// Every testdata file must be listed in the manifest, so new programs
// cannot be shipped untested.
func TestTestdataManifestComplete(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, tc := range testdataPrograms {
		listed[tc.file] = true
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".pm") {
			continue
		}
		if !listed[e.Name()] {
			t.Errorf("testdata/%s is not in the verdict manifest", e.Name())
		}
	}
}

// TestStressAllBenchmarksModelCheck gives every port a bounded
// model-checking pass on top of its random-mode runs — a soak that
// shakes out exploration bugs. Skipped in -short mode; PSAN_TEST_QUICK
// (the CI race run) cuts the execution budget.
func TestStressAllBenchmarksModelCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	execs := scaled(1500)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res := explore.Run(b.Build(bench.Buggy), explore.Options{
				Mode:       explore.ModelCheck,
				Executions: execs,
			})
			if res.Executions == 0 {
				t.Fatal("no executions ran")
			}
			// Model checking within its cap must never abort and the
			// fixed variant under the same budget must stay clean.
			if res.Aborted != 0 {
				t.Fatalf("%d aborted executions", res.Aborted)
			}
			clean := explore.Run(b.Build(bench.Fixed), explore.Options{
				Mode:       explore.ModelCheck,
				Executions: 1500,
			})
			if len(clean.Violations) != 0 {
				t.Fatalf("fixed variant reported under model checking: %v", clean.ViolationKeys())
			}
		})
	}
}
