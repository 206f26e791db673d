package repro

// Determinism regression tests for the parallel exploration engine:
// for every benchmark in the registry, a run with many workers must be
// byte-identical to the serial run — same violation reports (fixes
// included) in the same order, same execution counts, same abort
// counts — in both exploration modes. The model-check tests run the
// default engine here; their "unreduced" variants, and the tests that
// compare against the unreduced engine, live in internal/explore next to
// the test seam that builds it.

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/pmem"
)

// quickTest reports whether PSAN_TEST_QUICK=1 is set — the CI race run
// uses it to keep the heavy exploration tests under a few minutes.
func quickTest() bool {
	return os.Getenv("PSAN_TEST_QUICK") != ""
}

// scaled returns n, cut down in quick mode.
func scaled(n int) int {
	if quickTest() {
		return n / 5
	}
	return n
}

func assertSameOutcome(t *testing.T, context string, a, b *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
		t.Fatalf("%s: ViolationKeys differ\n  %d workers: %v\n  %d workers: %v",
			context, a.Workers, a.ViolationKeys(), b.Workers, b.ViolationKeys())
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
	// The rendered reports too, in first-found order: the same keys from
	// different first executions would differ in their store clocks,
	// crash interval, or fixes.
	for i := range a.Violations {
		if sa, sb := a.Violations[i].String(), b.Violations[i].String(); sa != sb {
			t.Fatalf("%s: violation %d differs\n  %d workers:\n%s  %d workers:\n%s", context, i, a.Workers, sa, b.Workers, sb)
		}
	}
}

// forceProcs raises GOMAXPROCS to n for the rest of the test, so
// parallel workers really run concurrently even on a 1-CPU machine and
// the race detector sees their interleavings.
func forceProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// registryAndServers is every registered benchmark plus the workload
// servers: the ports whose shared phase closures concurrent worlds run.
func registryAndServers() []*bench.Benchmark {
	return append(benchmarks.All(), benchmarks.Servers()...)
}

// TestParallelDeterminismRandom: Workers:8 random search reproduces the
// Workers:1 result bit for bit on every registered benchmark and
// workload server.
func TestParallelDeterminismRandom(t *testing.T) {
	forceProcs(t, 4)
	execs := scaled(200)
	for _, b := range registryAndServers() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opt := explore.Options{Mode: explore.Random, Executions: execs, Seed: 11}
			opt.Workers = 1
			serial := explore.Run(b.Build(bench.Buggy), opt)
			opt.Workers = 8
			parallel := explore.Run(b.Build(bench.Buggy), opt)
			assertSameOutcome(t, b.Name, serial, parallel)
		})
	}
}

// modelCheckVariant is one engine setting a model-check determinism
// test must hold under.
type modelCheckVariant struct {
	name  string
	apply func(explore.Options) explore.Options
}

// reduced is the default engine: snapshots and the state cache on.
var reduced = modelCheckVariant{"reduced", func(o explore.Options) explore.Options { return o }}

// TestParallelDeterminismModelCheck: subtree units claimed by 8
// workers reproduce the single-worker DFS exactly, including where the
// Executions cap truncates the search, on every registered benchmark
// and workload server. The "unreduced" variant is in internal/explore.
func TestParallelDeterminismModelCheck(t *testing.T) {
	forceProcs(t, 4)
	execs := scaled(400)
	for _, v := range []modelCheckVariant{reduced} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, b := range registryAndServers() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					opt := v.apply(explore.Options{Mode: explore.ModelCheck, Executions: execs})
					opt.Workers = 1
					serial := explore.Run(b.Build(bench.Buggy), opt)
					opt.Workers = 8
					parallel := explore.Run(b.Build(bench.Buggy), opt)
					assertSameOutcome(t, b.Name, serial, parallel)
					if serial.Executions == 0 {
						t.Fatal("no executions ran")
					}
				})
			}
		})
	}
}

// TestCacheStatsWorkerIndependent: with a binding Executions cap, the
// state-cache hit and miss counts are the same at one worker and at
// four. Past the cap, whether a subtree classified depends on how far
// its first execution ran under the conservative allowance, so only
// subtrees that start inside the collected prefix may count. Each
// parallel run repeats, since a leak shows only on some schedules.
func TestCacheStatsWorkerIndependent(t *testing.T) {
	forceProcs(t, 4)
	for _, name := range []string{"FAST_FAIR", "PMDK", "Redis"} {
		b := benchmarks.ByName(name)
		opt := explore.Options{Mode: explore.ModelCheck, Executions: scaled(3000), Workers: 1}
		serial := explore.Run(b.Build(bench.Buggy), opt)
		if !serial.Partial {
			t.Fatalf("%s: the cap should bind: %s", name, serial)
		}
		opt.Workers = 4
		for rep := 0; rep < 3; rep++ {
			par := explore.Run(b.Build(bench.Buggy), opt)
			assertSameOutcome(t, name, serial, par)
			if par.CacheHits != serial.CacheHits || par.CacheMisses != serial.CacheMisses {
				t.Fatalf("%s run %d: cache %d/%d at 4 workers, %d/%d at 1", name, rep,
					par.CacheHits, par.CacheMisses, serial.CacheHits, serial.CacheMisses)
			}
		}
	}
}

// mergeKeys folds a result's violation keys into a set.
func mergeKeys(into map[string]bool, res *explore.Result) {
	for _, k := range res.ViolationKeys() {
		into[k] = true
	}
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCancelResumeDeterminismRandom: for every benchmark, cancel a
// random campaign mid-run via its context, resume from the checkpoint,
// and check the merged outcome is byte-identical to the uninterrupted
// run — same violation key set, same cumulative execution and abort
// counts.
func TestCancelResumeDeterminismRandom(t *testing.T) {
	execs := scaled(200)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opt := explore.Options{Mode: explore.Random, Executions: execs, Seed: 11, Workers: 4}
			full := explore.Run(b.Build(bench.Buggy), opt)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			popt := opt
			popt.Context = ctx
			// Cancel early enough that the in-flight window (Workers ×
			// the scheduler's lookahead units) cannot carry the run to
			// completion.
			cancelAt := execs / 8
			if cancelAt < 1 {
				cancelAt = 1
			}
			popt.Progress = func(exec int) {
				if exec == cancelAt {
					cancel()
				}
			}
			partial := explore.Run(b.Build(bench.Buggy), popt)
			if !partial.Partial {
				// The run won the race against the cancellation; it must
				// then simply equal the uninterrupted run.
				assertSameOutcome(t, b.Name+" (cancel raced)", full, partial)
				return
			}
			if partial.Checkpoint == nil {
				t.Fatalf("partial run carries no checkpoint: %s", partial)
			}
			if err := partial.Checkpoint.Validate(full.Program, opt); err != nil {
				t.Fatalf("checkpoint rejected: %v", err)
			}
			ropt := opt
			ropt.Resume = partial.Checkpoint
			resumed := explore.Run(b.Build(bench.Buggy), ropt)
			if resumed.Partial {
				t.Fatalf("resumed run did not complete: %s", resumed)
			}
			if resumed.Executions != full.Executions || resumed.Aborted != full.Aborted {
				t.Fatalf("cumulative counts diverge: %s vs %s", resumed, full)
			}
			merged := make(map[string]bool)
			mergeKeys(merged, partial)
			mergeKeys(merged, resumed)
			if !reflect.DeepEqual(sortedKeys(merged), full.ViolationKeys()) {
				t.Fatalf("merged violations differ\n  merged: %v\n  full:   %v",
					sortedKeys(merged), full.ViolationKeys())
			}
		})
	}
}

// TestCancelResumeDeterminismModelCheck: for every benchmark, interrupt
// the frontier-split DFS under escalating deadlines and chain resumes
// until the campaign ends; the merged outcome must match the
// uninterrupted run — with the default engine and under a bounded
// window, whose checkpoints record the reductions it turns off. The
// "unreduced" variant is in internal/explore. A leg that ends on the
// execution budget (no checkpoint) is terminal by construction — the
// uninterrupted run ends the same way at the same canonical prefix.
func TestCancelResumeDeterminismModelCheck(t *testing.T) {
	execs := scaled(400)
	windowed := modelCheckVariant{"windowed", func(o explore.Options) explore.Options {
		o.Model.Window = 4
		return o
	}}
	for _, v := range []modelCheckVariant{reduced, windowed} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, b := range benchmarks.All() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					opt := v.apply(explore.Options{Mode: explore.ModelCheck, Executions: execs, Workers: 4})
					full := explore.Run(b.Build(bench.Buggy), opt)

					merged := make(map[string]bool)
					copt := opt
					copt.Deadline = 200 * time.Microsecond
					legs := 0
					var last *explore.Result
					for leg := 0; ; leg++ {
						if leg > 60 {
							t.Fatal("resume chain did not converge in 60 legs")
						}
						legs = leg + 1
						last = explore.Run(b.Build(bench.Buggy), copt)
						mergeKeys(merged, last)
						if !last.Partial || last.Checkpoint == nil {
							break
						}
						if err := last.Checkpoint.Validate(full.Program, opt); err != nil {
							t.Fatalf("leg %d checkpoint rejected: %v", leg, err)
						}
						copt.Resume = last.Checkpoint
						copt.Deadline *= 2
					}
					if last.Executions != full.Executions || last.Aborted != full.Aborted {
						t.Fatalf("cumulative counts diverge: %s vs %s", last, full)
					}
					if !reflect.DeepEqual(sortedKeys(merged), full.ViolationKeys()) {
						t.Fatalf("merged violations differ\n  merged: %v\n  full:   %v",
							sortedKeys(merged), full.ViolationKeys())
					}
					t.Logf("%s: converged in %d leg(s)", b.Name, legs)
				})
			}
		})
	}
}

// TestStealDeterminismModelCheck: the narrowest and widest worker
// counts, 4 and 16, assemble the same canonical stream as a Workers=1
// run bit for bit, including where the Executions cap truncates the
// search. The "unreduced" variant is in internal/explore. (The name
// dates from the work-stealing scheduler, whose donations this test
// once forced; the width property it pins outlived it.)
func TestStealDeterminismModelCheck(t *testing.T) {
	forceProcs(t, 4)
	execs := scaled(400)
	for _, v := range []modelCheckVariant{reduced} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for _, b := range benchmarks.All() {
				b := b
				t.Run(b.Name, func(t *testing.T) {
					opt := v.apply(explore.Options{Mode: explore.ModelCheck, Executions: execs})
					opt.Workers = 1
					baseline := explore.Run(b.Build(bench.Buggy), opt)
					for _, workers := range []int{4, 16} {
						opt.Workers = workers
						wide := explore.Run(b.Build(bench.Buggy), opt)
						assertSameOutcome(t, fmt.Sprintf("%s at %d workers", b.Name, workers), baseline, wide)
					}
					if baseline.Executions == 0 {
						t.Fatal("no executions ran")
					}
				})
			}
		})
	}
}

// canonicalOps returns the per-execution op counts of the canonical
// stream's non-quarantined executions, in index order, computed through
// RunUnit the way a supervisor would drive it: one range for random
// mode, subtree units chained by their classifications for model
// checking.
func canonicalOps(t *testing.T, build func() explore.Program, opt explore.Options) []int64 {
	t.Helper()
	var ops []int64
	add := func(spec explore.UnitSpec) *explore.UnitResult {
		ur, err := explore.RunUnit(build(), opt, spec, explore.UnitHooks{})
		if err != nil {
			t.Fatal(err)
		}
		reps := ur.Reports
		for i, n := range ur.Ops {
			if len(reps) > 0 && reps[0].Offset == i {
				quarantined := reps[0].Err != nil
				reps = reps[1:]
				if quarantined {
					continue
				}
			}
			ops = append(ops, n)
		}
		return ur
	}
	if opt.Mode == explore.Random {
		add(explore.UnitSpec{Random: &explore.RandomRange{Lo: 0, Hi: opt.Executions}})
		return ops
	}
	var keys []explore.CacheEntry
	ran := 0
	for v, more := 0, true; more && ran < opt.Executions; v++ {
		ur := add(explore.UnitSpec{
			MC:     &explore.MCCheckpoint{Subtree: v, CacheKeys: append([]explore.CacheEntry(nil), keys...)},
			Budget: opt.Executions - ran,
		})
		if ur.Class.Keyed {
			keys = append(keys, ur.Class.Key)
		}
		more = ur.Class.InjectionFired
		ran += ur.N
	}
	return ops
}

// TestAfterExecutionContract pins the AfterExecution contract in both
// modes at either requested width: the hook runs at the execution site
// on a single worker, sees exactly Executions − Quarantined worlds (a
// quarantined execution's world is discarded, never lent) in canonical
// index order, and leaves the Result identical to the same run without
// the hook — reductions, state cache and all. Chaos injection keeps the
// quarantine path in the table.
func TestAfterExecutionContract(t *testing.T) {
	forceProcs(t, 4)
	b := benchmarks.ByName("CCEH")
	build := func() explore.Program { return b.Build(bench.Buggy) }
	for _, mode := range []explore.Mode{explore.Random, explore.ModelCheck} {
		for _, workers := range []int{1, 4} {
			mode, workers := mode, workers
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				opt := explore.Options{
					Mode: mode, Executions: scaled(200), Seed: 3, Workers: workers,
					InjectFault: func(ordinal int) explore.Fault {
						if ordinal%7 == 2 {
							return explore.Fault{PanicAtOp: 3}
						}
						return explore.Fault{}
					},
				}
				plain := explore.Run(build(), opt)
				var seen []int64
				hooked := opt
				hooked.AfterExecution = func(w *pmem.World) { seen = append(seen, int64(w.Ops())) }
				res := explore.Run(build(), hooked)
				assertSameOutcome(t, b.Name, plain, res)
				if res.Workers != 1 {
					t.Fatalf("hooked run used %d workers, want 1", res.Workers)
				}
				if res.Quarantined == 0 {
					t.Fatalf("expected quarantined executions: %s", res)
				}
				if len(seen) != res.Executions-res.Quarantined {
					t.Fatalf("hook saw %d worlds for %d executions with %d quarantined",
						len(seen), res.Executions, res.Quarantined)
				}
				if want := canonicalOps(t, build, opt); !reflect.DeepEqual(seen, want) {
					t.Fatalf("hook saw worlds out of canonical order:\n  got  %v\n  want %v", seen, want)
				}
			})
		}
	}
}
