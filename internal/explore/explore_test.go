package explore

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/pmem"
)

const (
	addrX = memmodel.Addr(0x2000)
	addrY = memmodel.Addr(0x3000)
)

// figure2 is the paper's Figure 2 as a two-phase program: four stores
// with no flushes, then post-crash reads of both variables.
func figure2() Program {
	return &FuncProgram{
		ProgName: "figure2",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Store(addrY, 1, "y=1")
				th.Store(addrX, 2, "x=2")
				th.Store(addrY, 2, "y=2")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r1=x")
				th.Load(addrY, "r2=y")
			},
		},
	}
}

// figure2Fixed flushes both variables in order: robust.
func figure2Fixed() Program {
	return &FuncProgram{
		ProgName: "figure2-fixed",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Flush(addrX, "flush x")
				th.Store(addrY, 1, "y=1")
				th.Flush(addrY, "flush y")
				th.Store(addrX, 2, "x=2")
				th.Flush(addrX, "flush x2")
				th.Store(addrY, 2, "y=2")
				th.Flush(addrY, "flush y2")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r1=x")
				th.Load(addrY, "r2=y")
			},
		},
	}
}

// figure7 is the inter-thread example: thread 0 stores x and flushes,
// thread 1 copies x into y and flushes; with the right interleaving and
// crash point the execution is not robust even though every store has a
// flush after it.
func figure7() Program {
	return &FuncProgram{
		ProgName: "figure7",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				w.Spawn(0, func(th *pmem.Thread) {
					th.Store(addrX, 1, "x=1")
					th.Flush(addrX, "flush x")
				})
				w.Spawn(1, func(th *pmem.Thread) {
					r1 := th.Load(addrX, "r1=x")
					th.Store(addrY, r1, "y=r1")
					th.Flush(addrY, "flush y")
				})
				w.RunThreads()
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r2=x")
				th.Load(addrY, "r3=y")
			},
		},
	}
}

func TestModelCheckFindsFigure2(t *testing.T) {
	res := Run(figure2(), Options{Mode: ModelCheck, Executions: 10000})
	if len(res.Violations) == 0 {
		t.Fatalf("model checking missed the Figure 2 violation: %s", res)
	}
	found := false
	for _, v := range res.Violations {
		if v.MissingFlush.Loc == "x=2" && v.Persisted.Loc == "y=2" ||
			v.MissingFlush.Loc == "y=2" && v.Persisted.Loc == "x=2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected the (x=2, y=2) bug pair, got %v", res.ViolationKeys())
	}
}

func TestModelCheckTerminatesOnFixedProgram(t *testing.T) {
	res := Run(figure2Fixed(), Options{Mode: ModelCheck, Executions: 10000})
	if len(res.Violations) != 0 {
		t.Fatalf("fixed program reported violations: %v", res.ViolationKeys())
	}
	if res.Executions >= 10000 {
		t.Fatalf("model checking did not terminate naturally: %d executions", res.Executions)
	}
	if res.ExecutionsToAllBugs != 0 {
		t.Fatalf("ExecutionsToAllBugs = %d, want 0", res.ExecutionsToAllBugs)
	}
}

func TestModelCheckEnumeratesCrashPoints(t *testing.T) {
	// A program with 2 fence-like ops and deterministic reads: the DFS
	// must try crash targets 0, 1, and 2 (= after the end), with the
	// read enumeration multiplying only where candidates exist.
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
	res := Run(prog, Options{Mode: ModelCheck, Executions: 10000})
	// Crash targets: 0 (before f1: x unguaranteed, 2 read choices),
	// 1 (before f2: x guaranteed, 1 choice), 2 (end: 1 choice).
	// Total executions: 2 + 1 + 1 = 4.
	if res.Executions != 4 {
		t.Fatalf("executions = %d, want 4", res.Executions)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.ViolationKeys())
	}
}

func TestRandomModeFindsFigure2(t *testing.T) {
	res := Run(figure2(), Options{Mode: Random, Executions: 200, Seed: 1})
	if len(res.Violations) == 0 {
		t.Fatalf("random mode missed the Figure 2 violation: %s", res)
	}
	if res.ExecutionsToAllBugs == 0 || res.ExecutionsToAllBugs > res.Executions {
		t.Fatalf("ExecutionsToAllBugs = %d out of %d", res.ExecutionsToAllBugs, res.Executions)
	}
}

func TestRandomModeFindsFigure7AcrossThreads(t *testing.T) {
	res := Run(figure7(), Options{Mode: Random, Executions: 500, Seed: 7})
	found := false
	for _, v := range res.Violations {
		if v.MissingFlush.Loc == "x=1" && v.Persisted.Loc == "y=r1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("random mode missed the Figure 7 inter-thread bug: %v", res.ViolationKeys())
	}
}

// TestCollectedViolationsNotRediagnosed: once the campaign has collected
// a violation key, later executions recognize it and skip its diagnosis,
// so each bug reaches exactly one execution's checker list — the
// execution that first found it.
func TestCollectedViolationsNotRediagnosed(t *testing.T) {
	reported := map[string]int{}
	res := Run(figure2(), Options{Mode: Random, Executions: 200, Seed: 1, AfterExecution: func(w *pmem.World) {
		for _, v := range w.Checker.Violations() {
			reported[v.Key()]++
		}
	}})
	if len(res.Violations) == 0 {
		t.Fatalf("random mode missed the Figure 2 violation: %s", res)
	}
	if len(reported) != len(res.Violations) {
		t.Fatalf("executions reported keys %v, campaign collected %v", reported, res.ViolationKeys())
	}
	for _, k := range res.ViolationKeys() {
		if reported[k] != 1 {
			t.Fatalf("key %s diagnosed in %d executions, want 1", k, reported[k])
		}
	}
}

func TestDisabledCheckerReportsNothing(t *testing.T) {
	res := Run(figure2(), Options{Mode: Random, Executions: 100, Seed: 1, DisableChecker: true})
	if len(res.Violations) != 0 {
		t.Fatalf("disabled checker reported violations: %v", res.ViolationKeys())
	}
}

func TestModelCheckOnFixedFigure7(t *testing.T) {
	// Applying PSan's suggested fix from Figure 7 — flush x in thread 1
	// after reading it, before storing y — removes the violation.
	prog := &FuncProgram{
		ProgName: "figure7-fixed",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				w.Spawn(0, func(th *pmem.Thread) {
					th.Store(addrX, 1, "x=1")
					th.Flush(addrX, "flush x")
				})
				w.Spawn(1, func(th *pmem.Thread) {
					r1 := th.Load(addrX, "r1=x")
					th.Flush(addrX, "flush x in reader") // PSan's fix
					th.Store(addrY, r1, "y=r1")
					th.Flush(addrY, "flush y")
				})
				w.RunThreads()
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r2=x")
				th.Load(addrY, "r3=y")
			},
		},
	}
	res := Run(prog, Options{Mode: Random, Executions: 500, Seed: 7})
	for _, v := range res.Violations {
		if strings.Contains(v.MissingFlush.Loc, "x=1") {
			t.Fatalf("fix did not eliminate the violation: %v", v)
		}
	}
}

func TestResultString(t *testing.T) {
	res := Run(figure2(), Options{Mode: Random, Executions: 10, Seed: 3})
	s := res.String()
	if !strings.Contains(s, "figure2") || !strings.Contains(s, "10 executions") {
		t.Fatalf("summary = %q", s)
	}
	if res.PerExecution() <= 0 {
		t.Fatal("PerExecution should be positive")
	}
}

// Store-buffer mode: the same bugs are found (commit timing is extra
// nondeterminism, not a soundness change), and executions where even
// flushed stores were still sitting in a buffer at the crash appear.
func TestStoreBuffersMode(t *testing.T) {
	res := Run(figure2(), Options{Mode: Random, Executions: 300, Seed: 9, StoreBuffers: true})
	if len(res.Violations) == 0 {
		t.Fatalf("store-buffer mode missed the Figure 2 bug: %s", res)
	}
	if res.Aborted != 0 {
		t.Fatalf("%d aborted executions", res.Aborted)
	}
	// A flushed store can still be lost when the flush itself never left
	// the store buffer: the fixed program's post-crash reads can see the
	// initial value, which is consistent (no violations), unlike in
	// immediate-commit mode where the flush guarantees the store.
	sawInitial := false
	fixed := &FuncProgram{
		ProgName: "buffered-flush",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Flush(addrX, "flush x")
			},
			func(w *pmem.World) {
				if w.Thread(0).Load(addrX, "r=x") == 0 {
					sawInitial = true
				}
			},
		},
	}
	// Workers: 1 because the sawInitial closure is shared across
	// executions; parallel workers would race on it.
	res = Run(fixed, Options{Mode: Random, Executions: 300, Seed: 9, StoreBuffers: true, Workers: 1})
	if len(res.Violations) != 0 {
		t.Fatalf("buffered flush program flagged: %v", res.ViolationKeys())
	}
	if !sawInitial {
		t.Fatal("store-buffer mode never lost the buffered store+flush")
	}
}
