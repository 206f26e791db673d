// Package interp executes programs in the paper's Figure 9 language
// (parsed by internal/lang) on the simulated Px86 machine, adapting them
// to the exploration harness's Program interface.
//
// Each program location is laid out on its own cache line unless a
// `sameline` directive groups locations onto one line — the layout
// control needed to demonstrate cache-line colocation fixes (§5.2) and
// alignment bugs like FAST_FAIR's (#9 in Table 2).
package interp

import (
	"fmt"

	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/pmem"
)

// InternalError is the panic value raised when the interpreter meets an
// AST shape it has no case for — an interpreter bug (the parser and
// checker only produce known shapes). Typed so the exploration layer's
// panic isolation classifies the quarantined record instead of dying.
type InternalError struct{ Detail string }

// Error implements error.
func (e InternalError) Error() string { return "interp: " + e.Detail }

// InterpInternal marks the type for the explorer's panic classifier,
// which cannot import this package (our tests run through explore).
func (e InternalError) InterpInternal() {}

// Program is a compiled Figure 9 program ready for exploration.
type Program struct {
	name   string
	src    *lang.Program
	layout map[string]memmodel.Addr
	// labels precomputes the source-location string of every memory
	// operation in the program, so the per-operation hot path does no
	// formatting. Read-only after New — Phases may run on many
	// goroutines at once.
	labels map[any]string
}

// New lays out the program's locations and returns an executable
// Program.
func New(name string, src *lang.Program) *Program {
	p := &Program{name: name, src: src, layout: make(map[string]memmodel.Addr), labels: make(map[any]string)}
	// Place sameline groups first: consecutive words of one line.
	base := memmodel.Addr(0x10000)
	for _, group := range src.SameLine {
		for i, loc := range group {
			p.layout[loc] = base + memmodel.Addr(i*memmodel.WordSize)
		}
		base += memmodel.CacheLineSize
	}
	for _, loc := range src.Locations() {
		if _, done := p.layout[loc]; !done {
			p.layout[loc] = base
			base += memmodel.CacheLineSize
		}
	}
	for _, ph := range src.Phases {
		for _, td := range ph.Threads {
			p.walkStmts(td.Body)
		}
	}
	return p
}

// walkStmts precomputes operation labels for every statement and
// expression reachable from ss.
func (p *Program) walkStmts(ss []lang.Stmt) {
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.LetStmt:
			p.walkExpr(x.Expr)
		case *lang.StoreStmt:
			p.label(x, x.Pos)
			p.walkExpr(x.Expr)
		case *lang.FlushStmt:
			p.label(x, x.Pos)
		case *lang.FenceStmt:
			p.label(x, x.Pos)
		case *lang.IfStmt:
			p.walkExpr(x.Cond)
			p.walkStmts(x.Then)
			p.walkStmts(x.Else)
		case *lang.RepeatStmt:
			p.walkStmts(x.Body)
		case *lang.WhileStmt:
			p.walkExpr(x.Cond)
			p.walkStmts(x.Body)
		case *lang.AssertStmt:
			p.label(x, x.Pos)
			p.walkExpr(x.Expr)
		case *lang.ExprStmt:
			p.walkExpr(x.Expr)
		}
	}
}

func (p *Program) walkExpr(e lang.Expr) {
	switch x := e.(type) {
	case *lang.LoadExpr:
		p.label(x, x.Pos)
	case *lang.CASExpr:
		p.label(x, x.Pos)
		p.walkExpr(x.Expected)
		p.walkExpr(x.New)
	case *lang.FAAExpr:
		p.label(x, x.Pos)
		p.walkExpr(x.Delta)
	case *lang.BinExpr:
		p.walkExpr(x.L)
		p.walkExpr(x.R)
	case *lang.NotExpr:
		p.walkExpr(x.E)
	}
}

func (p *Program) label(n fmt.Stringer, pos lang.Pos) {
	p.labels[n] = fmt.Sprintf("%s @%s", n, pos)
}

// Name implements explore.Program.
func (p *Program) Name() string { return p.name }

// AddrOf returns the simulated address of a program location; it is
// exported so reports can translate addresses back to names.
func (p *Program) AddrOf(loc string) memmodel.Addr { return p.layout[loc] }

// NameOf maps a simulated address back to its program location name, or
// "" when the address belongs to no declared location. The repair loop
// uses it to name the flush target of a suggested fix.
func (p *Program) NameOf(a memmodel.Addr) string {
	for name, addr := range p.layout {
		if addr == a.Word() {
			return name
		}
	}
	return ""
}

// Phases implements explore.Program: each phase spawns its threads under
// the cooperative scheduler. A phase builds fresh per-thread interpreter
// state (register files) on entry, so all cross-phase state lives in
// the world.
func (p *Program) Phases() []func(*pmem.World) {
	phases := make([]func(*pmem.World), len(p.src.Phases))
	for i, ph := range p.src.Phases {
		ph := ph
		phases[i] = func(w *pmem.World) {
			if len(ph.Threads) == 1 {
				// Single-threaded phases run inline: no scheduler
				// nondeterminism to explore.
				td := ph.Threads[0]
				ex := &threadExec{p: p, th: w.Thread(memmodel.ThreadID(td.ID)), regs: map[string]memmodel.Value{}}
				ex.stmts(td.Body)
				return
			}
			for _, td := range ph.Threads {
				td := td
				w.Spawn(memmodel.ThreadID(td.ID), func(th *pmem.Thread) {
					ex := &threadExec{p: p, th: th, regs: map[string]memmodel.Value{}}
					ex.stmts(td.Body)
				})
			}
			w.RunThreads()
		}
	}
	return phases
}

// threadExec is the per-thread interpreter state: the register file and
// the thread handle.
type threadExec struct {
	p    *Program
	th   *pmem.Thread
	regs map[string]memmodel.Value
}

// loc returns the precomputed label for a node, formatting on the fly
// for nodes inserted after New (repair.Apply patches ASTs in place) —
// without writing the shared map, since phases run concurrently.
func (ex *threadExec) loc(stmtOrExpr fmt.Stringer, pos lang.Pos) string {
	if s, ok := ex.p.labels[stmtOrExpr]; ok {
		return s
	}
	return fmt.Sprintf("%s @%s", stmtOrExpr, pos)
}

func (ex *threadExec) stmts(ss []lang.Stmt) {
	for _, s := range ss {
		ex.stmt(s)
	}
}

func (ex *threadExec) stmt(s lang.Stmt) {
	ex.th.World().CountInterpStep()
	switch x := s.(type) {
	case *lang.LetStmt:
		ex.regs[x.Reg] = ex.eval(x.Expr)
	case *lang.StoreStmt:
		v := ex.eval(x.Expr)
		ex.th.Store(ex.p.layout[x.Loc], v, ex.loc(x, x.Pos))
	case *lang.FlushStmt:
		if x.Opt {
			ex.th.FlushOpt(ex.p.layout[x.Loc], ex.loc(x, x.Pos))
		} else {
			ex.th.Flush(ex.p.layout[x.Loc], ex.loc(x, x.Pos))
		}
	case *lang.FenceStmt:
		if x.Full {
			ex.th.MFence(ex.loc(x, x.Pos))
		} else {
			ex.th.SFence(ex.loc(x, x.Pos))
		}
	case *lang.IfStmt:
		if ex.eval(x.Cond) != 0 {
			ex.stmts(x.Then)
		} else {
			ex.stmts(x.Else)
		}
	case *lang.RepeatStmt:
		for i := 0; i < x.Count; i++ {
			ex.stmts(x.Body)
		}
	case *lang.WhileStmt:
		// The world's per-execution operation budget bounds runaway
		// loops (condition evaluation performs at least one op when it
		// touches memory; pure-register loops are bounded by the
		// explicit iteration guard below).
		for i := 0; ex.eval(x.Cond) != 0; i++ {
			if i > 1<<20 {
				panic(pmem.AbortSignal{Reason: "while loop exceeded iteration bound"})
			}
			ex.stmts(x.Body)
		}
	case *lang.AssertStmt:
		if ex.eval(x.Expr) == 0 {
			ex.th.World().RecordAssertFailure(ex.loc(x, x.Pos))
		}
	case *lang.ExprStmt:
		ex.eval(x.Expr)
	default:
		panic(InternalError{Detail: fmt.Sprintf("unknown statement %T", s)})
	}
}

func boolVal(b bool) memmodel.Value {
	if b {
		return 1
	}
	return 0
}

func (ex *threadExec) eval(e lang.Expr) memmodel.Value {
	switch x := e.(type) {
	case *lang.NumExpr:
		return memmodel.Value(x.Val)
	case *lang.RegExpr:
		return ex.regs[x.Name]
	case *lang.LoadExpr:
		return ex.th.Load(ex.p.layout[x.Loc], ex.loc(x, x.Pos))
	case *lang.CASExpr:
		expd := ex.eval(x.Expected)
		newV := ex.eval(x.New)
		old, _ := ex.th.CAS(ex.p.layout[x.Loc], expd, newV, ex.loc(x, x.Pos))
		return old
	case *lang.FAAExpr:
		delta := ex.eval(x.Delta)
		return ex.th.FAA(ex.p.layout[x.Loc], delta, ex.loc(x, x.Pos))
	case *lang.BinExpr:
		// Short-circuit the logical operators: their operands may have
		// memory side effects.
		switch x.Op {
		case "&&":
			if ex.eval(x.L) == 0 {
				return 0
			}
			return boolVal(ex.eval(x.R) != 0)
		case "||":
			if ex.eval(x.L) != 0 {
				return 1
			}
			return boolVal(ex.eval(x.R) != 0)
		}
		l, r := ex.eval(x.L), ex.eval(x.R)
		switch x.Op {
		case "+":
			return l + r
		case "-":
			return l - r
		case "*":
			return l * r
		case "/":
			if r == 0 {
				return 0
			}
			return l / r
		case "%":
			if r == 0 {
				return 0
			}
			return l % r
		case "==":
			return boolVal(l == r)
		case "!=":
			return boolVal(l != r)
		case "<":
			return boolVal(l < r)
		case "<=":
			return boolVal(l <= r)
		case ">":
			return boolVal(l > r)
		case ">=":
			return boolVal(l >= r)
		}
		panic(InternalError{Detail: fmt.Sprintf("unknown operator %q", x.Op)})
	case *lang.NotExpr:
		return boolVal(ex.eval(x.E) == 0)
	default:
		panic(InternalError{Detail: fmt.Sprintf("unknown expression %T", e)})
	}
}
