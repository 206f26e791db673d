package interp

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/pmem"
)

func compile(t *testing.T, name, src string) *Program {
	t.Helper()
	parsed, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(name, parsed)
}

// runDirect executes the program once with no crash injection, returning
// the world (for register-free observations via memory).
func runDirect(t *testing.T, p *Program) *pmem.World {
	t.Helper()
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1})
	for i, phase := range p.Phases() {
		w.SetCrashTarget(-1)
		w.RunPhase(phase)
		if i < len(p.Phases())-1 {
			w.Crash()
		}
	}
	return w
}

func TestArithmeticAndControlFlow(t *testing.T) {
	p := compile(t, "arith", `
phase {
  thread 0 {
    let a = 2 + 3 * 4;       // 14
    let b = a % 5;           // 4
    x = b;
    if (b == 4) { y = 10; } else { y = 20; }
    repeat 5 { faa(z, 2); }
  }
}`)
	w := runDirect(t, p)
	th := w.Thread(9)
	if got := th.Load(p.AddrOf("x"), "rx"); got != 4 {
		t.Fatalf("x = %d, want 4", got)
	}
	if got := th.Load(p.AddrOf("y"), "ry"); got != 10 {
		t.Fatalf("y = %d, want 10", got)
	}
	if got := th.Load(p.AddrOf("z"), "rz"); got != 10 {
		t.Fatalf("z = %d, want 10 (5 × faa 2)", got)
	}
}

func TestCASSemanticsInLanguage(t *testing.T) {
	p := compile(t, "cas", `
phase {
  thread 0 {
    x = 5;
    let o1 = cas(x, 5, 6);   // succeeds, o1 = 5
    let o2 = cas(x, 5, 7);   // fails, o2 = 6
    y = o1;
    z = o2;
  }
}`)
	w := runDirect(t, p)
	th := w.Thread(9)
	if got := th.Load(p.AddrOf("x"), "rx"); got != 6 {
		t.Fatalf("x = %d, want 6", got)
	}
	if got := th.Load(p.AddrOf("y"), "ry"); got != 5 {
		t.Fatalf("y = %d, want 5", got)
	}
	if got := th.Load(p.AddrOf("z"), "rz"); got != 6 {
		t.Fatalf("z = %d, want 6", got)
	}
}

func TestShortCircuitSkipsSideEffects(t *testing.T) {
	p := compile(t, "shortcircuit", `
phase {
  thread 0 {
    let a = 0 && faa(x, 1);  // right side must not run
    let b = 1 || faa(y, 1);  // right side must not run
    z = a + b;
  }
}`)
	w := runDirect(t, p)
	th := w.Thread(9)
	if got := th.Load(p.AddrOf("x"), "rx"); got != 0 {
		t.Fatalf("x = %d, want 0 (short-circuited)", got)
	}
	if got := th.Load(p.AddrOf("y"), "ry"); got != 0 {
		t.Fatalf("y = %d, want 0 (short-circuited)", got)
	}
	if got := th.Load(p.AddrOf("z"), "rz"); got != 1 {
		t.Fatalf("z = %d, want 1", got)
	}
}

func TestAssertFailureRecorded(t *testing.T) {
	p := compile(t, "assert", `
phase {
  thread 0 {
    x = 1;
    let r = load(x);
    assert(r == 2);
  }
}`)
	w := runDirect(t, p)
	if n := len(w.AssertFailures()); n != 1 {
		t.Fatalf("assert failures = %d, want 1", n)
	}
	if !strings.Contains(w.AssertFailures()[0], "assert((r == 2))") {
		t.Fatalf("failure loc = %q", w.AssertFailures()[0])
	}
}

// The paper's Figure 2 written in the Figure 9 language, explored with
// model checking: PSan must find the missing-flush bug.
func TestFigure2ProgramModelCheck(t *testing.T) {
	p := compile(t, "fig2", `
phase {
  thread 0 {
    x = 1;
    y = 1;
    x = 2;
    y = 2;
  }
}
phase {
  thread 0 {
    let r1 = load(x);
    let r2 = load(y);
  }
}`)
	res := explore.Run(p, explore.Options{Mode: explore.ModelCheck, Executions: 10000})
	if len(res.Violations) == 0 {
		t.Fatalf("no violations found: %s", res)
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.MissingFlush.Loc, "x = 2") || strings.Contains(v.MissingFlush.Loc, "y = 2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("wrong bugs: %v", res.ViolationKeys())
	}
}

// Figure 2 with the commit-store discipline (flush+sfence before each
// overwrite) is robust under full model checking.
func TestRobustProgramModelCheck(t *testing.T) {
	p := compile(t, "fig2-fixed", `
phase {
  thread 0 {
    x = 1;
    flushopt x;
    sfence;
    y = 1;
    flushopt y;
    sfence;
    x = 2;
    flushopt x;
    sfence;
    y = 2;
    flushopt y;
    sfence;
  }
}
phase {
  thread 0 {
    let r1 = load(x);
    let r2 = load(y);
  }
}`)
	res := explore.Run(p, explore.Options{Mode: explore.ModelCheck, Executions: 50000})
	if len(res.Violations) != 0 {
		t.Fatalf("robust program flagged: %v", res.ViolationKeys())
	}
	if res.Executions >= 50000 {
		t.Fatalf("model checking did not terminate: %d executions", res.Executions)
	}
}

// sameline places locations on one cache line, which makes the Figure 2
// pattern robust without any flushes (same-line stores persist in TSO
// order).
func TestSamelineMakesFigure2Robust(t *testing.T) {
	p := compile(t, "fig2-sameline", `
sameline x y;
phase {
  thread 0 {
    x = 1;
    y = 1;
    x = 2;
    y = 2;
  }
}
phase {
  thread 0 {
    let r1 = load(x);
    let r2 = load(y);
  }
}`)
	if memmodel.SameLine(p.AddrOf("x"), p.AddrOf("y")) != true {
		t.Fatal("sameline layout not applied")
	}
	res := explore.Run(p, explore.Options{Mode: explore.ModelCheck, Executions: 10000})
	if len(res.Violations) != 0 {
		t.Fatalf("sameline program flagged: %v", res.ViolationKeys())
	}
}

// Figure 8's three-phase program: model checking must find the multi-
// crash violation.
func TestFigure8ProgramModelCheck(t *testing.T) {
	p := compile(t, "fig8", `
phase {
  thread 0 {
    x = 1;
    y = 1;
  }
}
phase {
  thread 0 {
    y = 2;
    let r = load(x);
  }
}
phase {
  thread 0 {
    let s = load(y);
  }
}`)
	res := explore.Run(p, explore.Options{Mode: explore.ModelCheck, Executions: 10000})
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.MissingFlush.Loc, "x = 1") && strings.Contains(v.Persisted.Loc, "y = 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Figure 8 bug not found: %v", res.ViolationKeys())
	}
}

// Figure 7 as a two-thread program under random exploration.
func TestFigure7ProgramRandom(t *testing.T) {
	p := compile(t, "fig7", `
phase {
  thread 0 {
    x = 1;
    flush x;
  }
  thread 1 {
    let r1 = load(x);
    y = r1;
    flush y;
  }
}
phase {
  thread 0 {
    let r2 = load(x);
    let r3 = load(y);
  }
}`)
	res := explore.Run(p, explore.Options{Mode: explore.Random, Executions: 800, Seed: 11})
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v.MissingFlush.Loc, "x = 1") && strings.Contains(v.Persisted.Loc, "y = r1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Figure 7 bug not found: %v", res.ViolationKeys())
	}
}

func TestMultiThreadedPhaseRunsUnderScheduler(t *testing.T) {
	p := compile(t, "mt", `
phase {
  thread 0 { repeat 10 { faa(a, 1); } }
  thread 1 { repeat 10 { faa(a, 1); } }
}`)
	w := runDirect(t, p)
	th := w.Thread(9)
	// faa is atomic: twenty increments land regardless of interleaving.
	if got := th.Load(p.AddrOf("a"), "ra"); got != 20 {
		t.Fatalf("a = %d, want 20", got)
	}
}

// A spin lock built from while+cas across two scheduled threads: both
// critical sections must execute (mutual exclusion is the scheduler's
// and CAS's job; this exercises while in a genuinely concurrent phase).
func TestWhileSpinLockAcrossThreads(t *testing.T) {
	p := compile(t, "spinlock", `
phase {
  thread 0 {
    while (cas(lock, 0, 1) != 0) { }
    let v = load(shared);
    shared = v + 1;
    lock = 0;
  }
  thread 1 {
    while (cas(lock, 0, 1) != 0) { }
    let v = load(shared);
    shared = v + 1;
    lock = 0;
  }
}`)
	w := runDirect(t, p)
	th := w.Thread(9)
	if got := th.Load(p.AddrOf("shared"), "r"); got != 2 {
		t.Fatalf("shared = %d, want 2 (both critical sections ran)", got)
	}
	if got := th.Load(p.AddrOf("lock"), "l"); got != 0 {
		t.Fatalf("lock = %d, want 0 (released)", got)
	}
}

// while loops whose condition reads memory stay within the op budget:
// a loop that can never exit aborts instead of hanging.
func TestWhileRunawayAborts(t *testing.T) {
	p := compile(t, "runaway", `
phase {
  thread 0 {
    while (load(x) == 0) { }
  }
}`)
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1, OpLimit: 5000})
	defer func() {
		if _, ok := recover().(pmem.AbortSignal); !ok {
			t.Fatal("expected AbortSignal")
		}
	}()
	p.Phases()[0](w)
}

// TestUnknownOperatorPanicsWhenRun: an AST shape the interpreter has no
// case for compiles, and raises InternalError only when executed, so
// the explorer's panic isolation quarantines the execution.
func TestUnknownOperatorPanicsWhenRun(t *testing.T) {
	prog := &lang.Program{Phases: []*lang.Phase{{Threads: []*lang.ThreadDecl{{ID: 0, Body: []lang.Stmt{
		&lang.LetStmt{Reg: "r", Expr: &lang.BinExpr{Op: "^", L: &lang.NumExpr{Val: 1}, R: &lang.NumExpr{Val: 2}}},
	}}}}}}
	p := New("bad-op", prog)
	defer func() {
		if e, ok := recover().(InternalError); !ok || !strings.Contains(e.Detail, `unknown operator "^"`) {
			t.Fatalf("recover() = %v, want an InternalError naming the operator", e)
		}
	}()
	runDirect(t, p)
}
