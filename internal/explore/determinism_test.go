package explore_test

// Determinism regression tests for the model-check engine: for every
// benchmark in the registry, a run with many workers must be
// byte-identical to the serial run — same violation reports (fixes
// included) in the same order, same execution counts, same abort
// counts — with the reductions switched off through the test seam,
// checkpoint/resume chains must reassemble the uninterrupted run, and
// the state cache must never lose a bug. The same tests' default-engine
// ("reduced") and windowed variants, and the random-mode counterparts,
// live in the root package.

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
)

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

// reductionVariant is one engine setting the model-check determinism
// tests must hold under.
type reductionVariant struct {
	name  string
	apply func(explore.Options) explore.Options
}

// reductionVariants is the default engine with snapshots switched off
// through the test seam. The default ("reduced") variants of the tests
// below run in the root package under the same test names.
var reductionVariants = []reductionVariant{
	{"unreduced", explore.WithoutSnapshots},
}

// TestParallelDeterminismModelCheck: subtree units claimed by 8
// workers reproduce the single-worker DFS exactly, including where the
// Executions cap truncates the search — with the reductions off, on
// every registered benchmark and workload server.
func TestParallelDeterminismModelCheck(t *testing.T) {
	forceProcs(t, 4)
	execs := scaled(400)
	for _, v := range reductionVariants {
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

// TestCancelResumeDeterminismModelCheck: for every benchmark, interrupt
// the frontier-split DFS under escalating deadlines and chain resumes
// until the campaign ends; the merged outcome must match the
// uninterrupted run — with the reductions off. A leg that ends on the
// execution budget (no checkpoint) is terminal by construction — the
// uninterrupted run ends the same way at the same canonical prefix.
func TestCancelResumeDeterminismModelCheck(t *testing.T) {
	execs := scaled(400)
	for _, v := range reductionVariants {
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
// run bit for bit, with the reductions off, including where the
// Executions cap truncates the search. (The name dates from the
// work-stealing scheduler, whose donations this test once forced; the
// width property it pins outlived it.)
func TestStealDeterminismModelCheck(t *testing.T) {
	forceProcs(t, 4)
	execs := scaled(400)
	for _, v := range reductionVariants {
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

// TestStateCacheSoundOnBenchmarks: pruning crash points with identical
// surviving images must never lose a bug. Under a binding Executions
// cap the cached run advances further through the decision tree and may
// legitimately find additional bugs, so the invariant is one-sided:
// every violation the uncached run reports, the cached run reports too.
// The cache must have pruned something on every port, at the full and
// the quick budget alike, or the comparison shows nothing.
func TestStateCacheSoundOnBenchmarks(t *testing.T) {
	execs := scaled(400)
	for _, b := range benchmarks.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cached := explore.Run(b.Build(bench.Buggy), explore.Options{
				Mode: explore.ModelCheck, Executions: execs, Workers: 1,
			})
			uncached := explore.Run(b.Build(bench.Buggy), explore.WithoutStateCache(explore.Options{
				Mode: explore.ModelCheck, Executions: execs, Workers: 1,
			}))
			have := make(map[string]bool)
			for _, k := range cached.ViolationKeys() {
				have[k] = true
			}
			for _, k := range uncached.ViolationKeys() {
				if !have[k] {
					t.Fatalf("state cache lost violation %s\n  cached:   %v\n  uncached: %v",
						k, cached.ViolationKeys(), uncached.ViolationKeys())
				}
			}
			if cached.CacheHits == 0 {
				t.Fatalf("the state cache never hit (%d misses)", cached.CacheMisses)
			}
		})
	}
}
