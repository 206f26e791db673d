package explore_test

// Regression tests for per-worker World reuse (World.Reset): it must be
// observationally identical to building a fresh World per execution.

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
)

// scaled returns n, cut down when PSAN_TEST_QUICK is set (the CI race
// run).
func scaled(n int) int {
	if os.Getenv("PSAN_TEST_QUICK") != "" {
		return n / 5
	}
	return n
}

// assertSameOutcome asserts the determinism contract between two runs:
// violation keys, execution counts, aborts, and the rendered reports in
// first-found order.
func assertSameOutcome(t *testing.T, context string, a, b *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
		t.Fatalf("%s: ViolationKeys differ\n  %v\n  %v", context, a.ViolationKeys(), b.ViolationKeys())
	}
	if a.Executions != b.Executions {
		t.Fatalf("%s: Executions %d vs %d", context, a.Executions, b.Executions)
	}
	if a.ExecutionsToAllBugs != b.ExecutionsToAllBugs {
		t.Fatalf("%s: ExecutionsToAllBugs %d vs %d", context, a.ExecutionsToAllBugs, b.ExecutionsToAllBugs)
	}
	if a.Aborted != b.Aborted {
		t.Fatalf("%s: Aborted %d vs %d", context, a.Aborted, b.Aborted)
	}
	for i := range a.Violations {
		if sa, sb := a.Violations[i].String(), b.Violations[i].String(); sa != sb {
			t.Fatalf("%s: violation %d differs\n%s\n%s", context, i, sa, sb)
		}
	}
}

// TestWorldReuseMatchesFreshWorlds: for every registered benchmark and
// both exploration modes, the default reused-World engine produces the
// same Result as one forced to build a fresh World per execution. This
// is the oracle for Machine.Reset, Trace.Reset, Checker.Reset, and
// Heap.Reset: any state leaking across executions shows up as a
// violation-key, execution-count, or abort-count difference.
func TestWorldReuseMatchesFreshWorlds(t *testing.T) {
	execs := scaled(100)
	for _, mode := range []explore.Mode{explore.Random, explore.ModelCheck} {
		for _, b := range benchmarks.All() {
			t.Run(mode.String()+"/"+b.Name, func(t *testing.T) {
				opt := explore.Options{Mode: mode, Executions: execs, Seed: 11, Workers: 1}
				reused := explore.Run(b.Build(bench.Buggy), opt)
				fresh := explore.Run(b.Build(bench.Buggy), explore.WithFreshWorlds(opt))
				// assertSameOutcome compares the rendered reports too:
				// frozen store copies, fixes, and intervals are part of
				// the user-visible output.
				assertSameOutcome(t, b.Name, reused, fresh)
			})
		}
	}
}

// TestWorldReuseMatchesFreshWorldsParallel covers the per-worker reuse
// path of the parallel random engine.
func TestWorldReuseMatchesFreshWorldsParallel(t *testing.T) {
	execs := scaled(100)
	for _, b := range benchmarks.All() {
		t.Run(b.Name, func(t *testing.T) {
			opt := explore.Options{Mode: explore.Random, Executions: execs, Seed: 11, Workers: 8}
			reused := explore.Run(b.Build(bench.Buggy), opt)
			fresh := explore.Run(b.Build(bench.Buggy), explore.WithFreshWorlds(opt))
			assertSameOutcome(t, b.Name, reused, fresh)
		})
	}
}
