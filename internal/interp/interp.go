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
	layout map[string]memmodel.Addr
	// phases are the compiled phases. Read-only after New — they may
	// run on many goroutines at once.
	phases []func(*pmem.World)
}

// New lays out the program's locations and compiles it: every
// statement and expression is resolved once to its address, register
// slot, operator and source-location label, so executing a step does
// no map operation, formatting or allocation. The compiled program
// does not see later changes to src (repair.Loop compiles again after
// patching).
func New(name string, src *lang.Program) *Program {
	p := &Program{name: name, layout: make(map[string]memmodel.Addr)}
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
		threads := make([]*thread, len(ph.Threads))
		for i, td := range ph.Threads {
			c := compiler{p: p, regs: map[string]int{}}
			t := &thread{id: memmodel.ThreadID(td.ID), body: c.stmts(td.Body)}
			t.nregs, t.runFn = len(c.regs), t.run
			threads[i] = t
		}
		p.phases = append(p.phases, func(w *pmem.World) {
			if len(threads) == 1 {
				// Single-threaded phases run inline: no scheduler
				// nondeterminism to explore.
				threads[0].run(w.Thread(threads[0].id))
				return
			}
			for _, t := range threads {
				w.Spawn(t.id, t.runFn)
			}
			w.RunThreads()
		})
	}
	return p
}

// kind is what a compiled statement or expression does.
type kind uint8

const (
	// Statements.
	kLet kind = iota
	kStore
	kFlush
	kFlushOpt
	kSFence
	kMFence
	kIf
	kRepeat
	kWhile
	kAssert
	kExprStmt
	// Expressions.
	kNum
	kReg
	kLoad
	kCAS
	kFAA
	kBin
	kNot
	// kBad is a node the compiler has no case for; executing it raises
	// InternalError with the detail in label.
	kBad
)

// binOp is a compiled binary operator.
type binOp uint8

const (
	opAnd binOp = iota
	opOr
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
)

var binOps = map[string]binOp{
	"&&": opAnd, "||": opOr, "+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
}

// stmt is a compiled statement.
type stmt struct {
	kind  kind
	reg   int // let's register slot
	count int // repeat's iteration count
	addr  memmodel.Addr
	label string
	// expr is the value of a let, store, assert or expression statement,
	// or the condition of an if or while.
	expr *expr
	// body is the then-branch of an if and the body of a loop; els is
	// the else-branch.
	body, els []stmt
}

// expr is a compiled expression.
type expr struct {
	kind  kind
	op    binOp
	val   memmodel.Value // a number's value
	reg   int            // a register's slot
	addr  memmodel.Addr
	label string
	// a and b are the operands: a binary operator's left and right, a
	// CAS's expected and new value, a FAA's delta (a) and a negation's
	// operand (a).
	a, b *expr
}

// compiler compiles one thread's body, numbering its registers.
type compiler struct {
	p    *Program
	regs map[string]int
}

// reg returns register name's slot.
func (c *compiler) reg(name string) int {
	r, ok := c.regs[name]
	if !ok {
		r = len(c.regs)
		c.regs[name] = r
	}
	return r
}

// label is a memory operation's source-location label.
func label(n fmt.Stringer, pos lang.Pos) string { return fmt.Sprintf("%s @%s", n, pos) }

func (c *compiler) stmts(ss []lang.Stmt) []stmt {
	out := make([]stmt, len(ss))
	for i, s := range ss {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *compiler) stmt(s lang.Stmt) stmt {
	switch x := s.(type) {
	case *lang.LetStmt:
		return stmt{kind: kLet, expr: c.expr(x.Expr), reg: c.reg(x.Reg)}
	case *lang.StoreStmt:
		return stmt{kind: kStore, expr: c.expr(x.Expr), addr: c.p.layout[x.Loc], label: label(x, x.Pos)}
	case *lang.FlushStmt:
		k := kFlush
		if x.Opt {
			k = kFlushOpt
		}
		return stmt{kind: k, addr: c.p.layout[x.Loc], label: label(x, x.Pos)}
	case *lang.FenceStmt:
		k := kSFence
		if x.Full {
			k = kMFence
		}
		return stmt{kind: k, label: label(x, x.Pos)}
	case *lang.IfStmt:
		return stmt{kind: kIf, expr: c.expr(x.Cond), body: c.stmts(x.Then), els: c.stmts(x.Else)}
	case *lang.RepeatStmt:
		return stmt{kind: kRepeat, count: x.Count, body: c.stmts(x.Body)}
	case *lang.WhileStmt:
		return stmt{kind: kWhile, expr: c.expr(x.Cond), body: c.stmts(x.Body)}
	case *lang.AssertStmt:
		return stmt{kind: kAssert, expr: c.expr(x.Expr), label: label(x, x.Pos)}
	case *lang.ExprStmt:
		return stmt{kind: kExprStmt, expr: c.expr(x.Expr)}
	default:
		return stmt{kind: kBad, label: fmt.Sprintf("unknown statement %T", s)}
	}
}

func (c *compiler) expr(e lang.Expr) *expr {
	switch x := e.(type) {
	case *lang.NumExpr:
		return &expr{kind: kNum, val: memmodel.Value(x.Val)}
	case *lang.RegExpr:
		return &expr{kind: kReg, reg: c.reg(x.Name)}
	case *lang.LoadExpr:
		return &expr{kind: kLoad, addr: c.p.layout[x.Loc], label: label(x, x.Pos)}
	case *lang.CASExpr:
		return &expr{kind: kCAS, addr: c.p.layout[x.Loc], label: label(x, x.Pos), a: c.expr(x.Expected), b: c.expr(x.New)}
	case *lang.FAAExpr:
		return &expr{kind: kFAA, addr: c.p.layout[x.Loc], label: label(x, x.Pos), a: c.expr(x.Delta)}
	case *lang.BinExpr:
		op, ok := binOps[x.Op]
		if !ok {
			return &expr{kind: kBad, label: fmt.Sprintf("unknown operator %q", x.Op)}
		}
		return &expr{kind: kBin, op: op, a: c.expr(x.L), b: c.expr(x.R)}
	case *lang.NotExpr:
		return &expr{kind: kNot, a: c.expr(x.E)}
	default:
		return &expr{kind: kBad, label: fmt.Sprintf("unknown expression %T", e)}
	}
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

// Phases implements explore.Program: each phase runs its threads under
// the cooperative scheduler (a single-threaded phase runs inline). Every
// thread starts with a fresh register file, so all cross-phase state
// lives in the world.
func (p *Program) Phases() []func(*pmem.World) { return p.phases }

// thread is one compiled thread of a phase. runFn is run as a func
// value, built once so spawning it allocates nothing.
type thread struct {
	id    memmodel.ThreadID
	nregs int
	body  []stmt
	runFn func(*pmem.Thread)
}

// inlineRegs is the register count a thread's register file holds
// without a heap allocation.
const inlineRegs = 16

// run executes the thread's body on th with a zeroed register file.
func (t *thread) run(th *pmem.Thread) {
	var inline [inlineRegs]memmodel.Value
	regs := inline[:]
	if t.nregs > inlineRegs {
		regs = make([]memmodel.Value, t.nregs)
	}
	ex := threadExec{th: th, regs: regs}
	ex.stmts(t.body)
}

// threadExec is the per-thread interpreter state: the register file and
// the thread handle.
type threadExec struct {
	th   *pmem.Thread
	regs []memmodel.Value
}

func (ex *threadExec) stmts(ss []stmt) {
	for i := range ss {
		ex.stmt(&ss[i])
	}
}

func (ex *threadExec) stmt(s *stmt) {
	ex.th.World().CountInterpStep()
	switch s.kind {
	case kLet:
		ex.regs[s.reg] = ex.eval(s.expr)
	case kStore:
		ex.th.Store(s.addr, ex.eval(s.expr), s.label)
	case kFlush:
		ex.th.Flush(s.addr, s.label)
	case kFlushOpt:
		ex.th.FlushOpt(s.addr, s.label)
	case kSFence:
		ex.th.SFence(s.label)
	case kMFence:
		ex.th.MFence(s.label)
	case kIf:
		if ex.eval(s.expr) != 0 {
			ex.stmts(s.body)
		} else {
			ex.stmts(s.els)
		}
	case kRepeat:
		for i := 0; i < s.count; i++ {
			ex.stmts(s.body)
		}
	case kWhile:
		// The world's per-execution operation budget bounds runaway
		// loops (condition evaluation performs at least one op when it
		// touches memory; pure-register loops are bounded by the
		// explicit iteration guard below).
		for i := 0; ex.eval(s.expr) != 0; i++ {
			if i > 1<<20 {
				panic(pmem.AbortSignal{Reason: "while loop exceeded iteration bound"})
			}
			ex.stmts(s.body)
		}
	case kAssert:
		if ex.eval(s.expr) == 0 {
			ex.th.World().RecordAssertFailure(s.label)
		}
	case kExprStmt:
		ex.eval(s.expr)
	default:
		panic(InternalError{Detail: s.label})
	}
}

func boolVal(b bool) memmodel.Value {
	if b {
		return 1
	}
	return 0
}

func (ex *threadExec) eval(e *expr) memmodel.Value {
	switch e.kind {
	case kNum:
		return e.val
	case kReg:
		return ex.regs[e.reg]
	case kLoad:
		return ex.th.Load(e.addr, e.label)
	case kCAS:
		expd := ex.eval(e.a)
		newV := ex.eval(e.b)
		old, _ := ex.th.CAS(e.addr, expd, newV, e.label)
		return old
	case kFAA:
		delta := ex.eval(e.a)
		return ex.th.FAA(e.addr, delta, e.label)
	case kBin:
		// Short-circuit the logical operators: their operands may have
		// memory side effects.
		switch e.op {
		case opAnd:
			if ex.eval(e.a) == 0 {
				return 0
			}
			return boolVal(ex.eval(e.b) != 0)
		case opOr:
			if ex.eval(e.a) != 0 {
				return 1
			}
			return boolVal(ex.eval(e.b) != 0)
		}
		l, r := ex.eval(e.a), ex.eval(e.b)
		switch e.op {
		case opAdd:
			return l + r
		case opSub:
			return l - r
		case opMul:
			return l * r
		case opDiv:
			if r == 0 {
				return 0
			}
			return l / r
		case opMod:
			if r == 0 {
				return 0
			}
			return l % r
		case opEq:
			return boolVal(l == r)
		case opNe:
			return boolVal(l != r)
		case opLt:
			return boolVal(l < r)
		case opLe:
			return boolVal(l <= r)
		case opGt:
			return boolVal(l > r)
		default: // opGe
			return boolVal(l >= r)
		}
	case kNot:
		return boolVal(ex.eval(e.a) == 0)
	default:
		panic(InternalError{Detail: e.label})
	}
}
