package explore

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
)

// sameOutcome asserts the determinism contract between two runs: the
// violation set, the execution counts, and the abort count must match
// byte for byte.
func sameOutcome(t *testing.T, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
		t.Fatalf("ViolationKeys differ:\n  %d workers: %v\n  %d workers: %v",
			a.Workers, a.ViolationKeys(), b.Workers, b.ViolationKeys())
	}
	if a.Executions != b.Executions {
		t.Fatalf("Executions differ: %d vs %d", a.Executions, b.Executions)
	}
	if a.ExecutionsToAllBugs != b.ExecutionsToAllBugs {
		t.Fatalf("ExecutionsToAllBugs differ: %d vs %d", a.ExecutionsToAllBugs, b.ExecutionsToAllBugs)
	}
	if a.Aborted != b.Aborted {
		t.Fatalf("Aborted differ: %d vs %d", a.Aborted, b.Aborted)
	}
}

func TestRandomParallelMatchesSerial(t *testing.T) {
	for _, prog := range []func() Program{figure2, figure7} {
		serial := Run(prog(), Options{Mode: Random, Executions: 300, Seed: 7, Workers: 1})
		parallel := Run(prog(), Options{Mode: Random, Executions: 300, Seed: 7, Workers: 4})
		sameOutcome(t, serial, parallel)
	}
}

func TestModelCheckParallelMatchesSerial(t *testing.T) {
	for _, workers := range []int{2, 8} {
		serial := Run(figure2(), Options{Mode: ModelCheck, Executions: 10000, Workers: 1})
		parallel := Run(figure2(), Options{Mode: ModelCheck, Executions: 10000, Workers: workers})
		sameOutcome(t, serial, parallel)
	}
}

// The Executions safety cap must bind identically for every worker
// count: the parallel engine assembles the canonical first-N prefix of
// the serial DFS order even when subtrees overshoot concurrently.
func TestModelCheckParallelCapDeterministic(t *testing.T) {
	for _, cap := range []int{1, 2, 3, 5} {
		serial := Run(figure2(), Options{Mode: ModelCheck, Executions: cap, Workers: 1})
		parallel := Run(figure2(), Options{Mode: ModelCheck, Executions: cap, Workers: 8})
		sameOutcome(t, serial, parallel)
		if serial.Executions != cap {
			t.Fatalf("cap %d: serial ran %d executions", cap, serial.Executions)
		}
	}
}

// TestStealBudgetCapDeterminism pins the allowance rule where it binds
// inside a subtree: with the Executions cap cutting figure7's
// enumeration in half while later subtree units may already be running,
// 4 and 16 workers truncate at exactly the same canonical prefix as one.
// (The name dates from the work-stealing scheduler.)
func TestStealBudgetCapDeterminism(t *testing.T) {
	total := Run(figure7(), Options{Mode: ModelCheck, Executions: 10000, Workers: 1}).Executions
	if total < 4 {
		t.Fatalf("figure7 enumerates only %d executions, cap cannot bind", total)
	}
	cap := total / 2
	serial := Run(figure7(), Options{Mode: ModelCheck, Executions: cap, Workers: 1})
	if serial.Executions != cap {
		t.Fatalf("serial ran %d executions under a cap of %d", serial.Executions, cap)
	}
	for _, workers := range []int{4, 16} {
		sameOutcome(t, serial, Run(figure7(), Options{Mode: ModelCheck, Executions: cap, Workers: workers}))
	}
}

// Progress must arrive serialized with strictly increasing 1-based
// indices, regardless of worker count or mode.
func TestProgressSerializedMonotone(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"random-parallel", Options{Mode: Random, Executions: 120, Seed: 3, Workers: 8}},
		{"model-check-parallel", Options{Mode: ModelCheck, Executions: 10000, Workers: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls []int
			var inFlight int32
			tc.opt.Progress = func(exec int) {
				if atomic.AddInt32(&inFlight, 1) != 1 {
					t.Error("Progress invoked concurrently")
				}
				calls = append(calls, exec)
				atomic.AddInt32(&inFlight, -1)
			}
			res := Run(figure2(), tc.opt)
			if len(calls) != res.Executions {
				t.Fatalf("%d Progress calls for %d executions", len(calls), res.Executions)
			}
			for i, got := range calls {
				if got != i+1 {
					t.Fatalf("call %d reported index %d, want %d", i, got, i+1)
				}
			}
		})
	}
}

// AfterExecution keeps its serialized in-order contract when parallel
// random mode is requested: the hook resolves the run to one worker, so
// every world is lent once, in execution-index order.
func TestAfterExecutionOrderedUnderParallelism(t *testing.T) {
	count := 0
	res := Run(figure2(), Options{
		Mode: Random, Executions: 80, Seed: 5, Workers: 8,
		AfterExecution: func(w *pmem.World) { count++ },
	})
	if count != res.Executions {
		t.Fatalf("AfterExecution ran %d times for %d executions", count, res.Executions)
	}
}

// TestAfterExecutionPanicReachesCaller: the hook runs on the calling
// goroutine in both modes, so a panic in it unwinds through Run to a
// caller that can recover it, instead of killing the process from a
// worker goroutine.
func TestAfterExecutionPanicReachesCaller(t *testing.T) {
	type hookPanic struct{}
	for _, mode := range []Mode{Random, ModelCheck} {
		t.Run(mode.String(), func(t *testing.T) {
			defer func() {
				if r := recover(); r != (hookPanic{}) {
					t.Fatalf("recovered %v, want the hook's panic", r)
				}
			}()
			Run(figure2(), Options{
				Mode: mode, Executions: 50, Seed: 1, Workers: 4,
				AfterExecution: func(*pmem.World) { panic(hookPanic{}) },
			})
			t.Fatal("Run returned after its hook panicked")
		})
	}
}

// TestStateCachePrunesIdenticalImages uses a program with two
// fence-like operations and no persistent-state change between them
// (the window between the flush and the sfence holds nothing), so the
// crash targets on either side of the sfence seal identical images:
// the model checker must explore one and prune the other.
func TestStateCachePrunesIdenticalImages(t *testing.T) {
	prog := &FuncProgram{
		ProgName: "cache-collapse",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Flush(addrX, "flush x")
				th.SFence("sfence")
			},
			func(w *pmem.World) {
				w.Thread(0).Load(addrX, "r=x")
			},
		},
	}
	// Crash targets: 0 (before the flush: x unresolved, 2 read choices),
	// 1 (before the sfence: x persisted, 1 choice), 2 (past the end:
	// image identical to target 1 — pruned by the cache).
	cached := Run(prog, Options{Mode: ModelCheck, Executions: 10000, Workers: 1})
	if cached.Executions != 3 {
		t.Fatalf("cached run: %d executions, want 3", cached.Executions)
	}
	if cached.CacheHits != 1 || cached.CacheMisses != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", cached.CacheHits, cached.CacheMisses)
	}
	uncached := Run(prog, Options{Mode: ModelCheck, Executions: 10000, Workers: 1, noStateCache: true})
	if uncached.Executions != 4 {
		t.Fatalf("uncached run: %d executions, want 4", uncached.Executions)
	}
	if uncached.CacheHits != 0 || uncached.CacheMisses != 0 {
		t.Fatalf("uncached run reported cache traffic: %d/%d", uncached.CacheHits, uncached.CacheMisses)
	}
	if !reflect.DeepEqual(cached.ViolationKeys(), uncached.ViolationKeys()) {
		t.Fatalf("cache changed verdicts: %v vs %v", cached.ViolationKeys(), uncached.ViolationKeys())
	}
}

// Workers: 0 resolves to NumCPU and is recorded in the result.
func TestWorkersDefaultResolved(t *testing.T) {
	res := Run(figure2(), Options{Mode: Random, Executions: 10, Seed: 1})
	if res.Workers < 1 {
		t.Fatalf("resolved workers = %d", res.Workers)
	}
}

// A chooser-visible sanity check that parallel model checking still
// enumerates reads: the two-flushes program from the serial test keeps
// its exact execution count under 8 workers with the cache on (all
// three images are distinct).
func TestModelCheckParallelEnumerationCount(t *testing.T) {
	prog := &FuncProgram{
		ProgName: "two-flushes",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Flush(addrX, "f1")
				th.Store(addrY, 1, "y=1")
				th.Flush(addrY, "f2")
			},
			func(w *pmem.World) {
				w.Thread(0).Load(addrX, "r=x")
			},
		},
	}
	res := Run(prog, Options{Mode: ModelCheck, Executions: 10000, Workers: 8})
	if res.Executions != 4 {
		t.Fatalf("executions = %d, want 4", res.Executions)
	}
	if res.CacheMisses != 3 || res.CacheHits != 0 {
		t.Fatalf("cache misses/hits = %d/%d, want 3/0", res.CacheMisses, res.CacheHits)
	}
}
