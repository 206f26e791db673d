package core

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/persist"
)

// ablationHarness couples a machine with a checker built with options.
type ablationHarness struct {
	t *testing.T
	m persist.Model
	c *Checker
}

func newAblation(t *testing.T, opt Options) *ablationHarness {
	m := persist.MustNew(persist.Config{})
	return &ablationHarness{t: t, m: m, c: NewWithOptions(m.Trace(), opt)}
}

func (h *ablationHarness) readValue(th memmodel.ThreadID, addr memmodel.Addr, want memmodel.Value, initial bool, loc string) []*Violation {
	h.t.Helper()
	for _, cand := range h.m.LoadCandidates(th, addr) {
		if cand.Store.Initial == initial && (initial || cand.Store.Value == want) {
			lid := h.m.Intern(loc)
			h.m.Load(th, addr, cand, lid)
			return h.c.ObserveRead(th, addr, cand.Store, lid)
		}
	}
	h.t.Fatalf("no candidate %d (initial=%v) for %s", want, initial, addr)
	return nil
}

// driveFigure6 runs the robust Figure 6 execution (r1=0, r2=1).
func driveFigure6(h *ablationHarness) int {
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(1, addrY, 1, h.m.Intern("y=1"))
	h.m.Flush(1, addrY, h.m.Intern("flush y"))
	h.m.Crash()
	n := len(h.readValue(0, addrX, 0, true, "r1=x"))
	n += len(h.readValue(0, addrY, 1, false, "r2=y"))
	return n
}

// driveFigure7 runs the non-robust Figure 7 execution.
func driveFigure7(h *ablationHarness) int {
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	cands := h.m.LoadCandidates(1, addrX)
	h.m.Load(1, addrX, cands[0], h.m.Intern("r1=x"))
	h.c.ObserveRead(1, addrX, cands[0].Store, h.m.Intern("r1=x"))
	h.m.Store(1, addrY, 1, h.m.Intern("y=r1"))
	h.m.Flush(1, addrY, h.m.Intern("flush y"))
	h.m.Crash()
	n := len(h.readValue(0, addrX, 0, true, "r2=x"))
	n += len(h.readValue(0, addrY, 1, false, "r3=y"))
	return n
}

// The full algorithm: no false positive on Figure 6, detects Figure 7.
func TestFullAlgorithmBaseline(t *testing.T) {
	if n := driveFigure6(newAblation(t, Options{})); n != 0 {
		t.Fatalf("Figure 6 flagged by the full algorithm: %d", n)
	}
	if n := driveFigure7(newAblation(t, Options{})); n == 0 {
		t.Fatal("Figure 7 missed by the full algorithm")
	}
}

// Ablation §4.2.1: a single global interval over TSO sequence numbers
// flags the robust Figure 6 execution — the false positive the paper
// uses to motivate per-thread intervals ("the combination of the two
// constraints ... is unsatisfiable").
func TestGlobalIntervalAblationFalsePositive(t *testing.T) {
	h := newAblation(t, Options{GlobalInterval: true})
	if n := driveFigure6(h); n == 0 {
		t.Fatal("the naïve global interval should flag Figure 6 (that is its flaw)")
	}
}

// Ablation §4.2.2: dropping the happens-before closure (implication
// 4.3) misses the Figure 7 violation — the example the paper uses to
// motivate it.
func TestNoHBClosureAblationMissesFigure7(t *testing.T) {
	h := newAblation(t, Options{NoHBClosure: true})
	if n := driveFigure7(h); n != 0 {
		t.Fatal("without hb-closure, Figure 7 should be missed (that is the ablation's flaw)")
	}
}

// The ablations must not change single-threaded verdicts: Figure 2 is
// caught by all three configurations.
func TestAblationsAgreeOnFigure2(t *testing.T) {
	for _, opt := range []Options{{}, {NoHBClosure: true}, {GlobalInterval: true}} {
		h := newAblation(t, opt)
		h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
		h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
		h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
		h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
		h.m.Crash()
		n := len(h.readValue(0, addrX, 1, false, "r1=x"))
		n += len(h.readValue(0, addrY, 2, false, "r2=y"))
		if n == 0 {
			t.Fatalf("Figure 2 missed under %+v", opt)
		}
	}
}
