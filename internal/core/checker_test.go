package core

import (
	"testing"

	"repro/internal/intervals"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

const (
	addrX = memmodel.Addr(0x1000)
	addrY = memmodel.Addr(0x2000)
	addrZ = memmodel.Addr(0x3000)
)

// harness couples a machine with a checker the way the explorer does.
type harness struct {
	t *testing.T
	m persist.Model
	c *Checker
}

func newHarness(t *testing.T) *harness {
	m := persist.MustNew(persist.Config{})
	return &harness{t: t, m: m, c: New(m.Trace())}
}

// readValue makes thread th load addr choosing the candidate with the
// given value (or the initial store when initial is true), observes the
// read, and returns any violations.
func (h *harness) readValue(th memmodel.ThreadID, addr memmodel.Addr, want memmodel.Value, initial bool, loc string) []*Violation {
	h.t.Helper()
	for _, cand := range h.m.LoadCandidates(th, addr) {
		if cand.Store.Initial == initial && (initial || cand.Store.Value == want) {
			lid := h.m.Intern(loc)
			h.m.Load(th, addr, cand, lid)
			return h.c.ObserveRead(th, addr, cand.Store, lid)
		}
	}
	h.t.Fatalf("no candidate with value %d (initial=%v) for %s", want, initial, addr)
	return nil
}

// TestFigure2 reproduces the paper's Figure 2: pre-crash x=1;y=1;x=2;y=2,
// post-crash r1=x reads 1 and r2=y reads 2 — not robust.
func TestFigure2(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	if vs := h.readValue(0, addrX, 1, false, "r1=x"); len(vs) != 0 {
		t.Fatalf("reading x=1 alone must be consistent, got %v", vs)
	}
	vs := h.readValue(0, addrY, 2, false, "r2=y")
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	v := vs[0]
	if v.Kind != ReadTooNew {
		t.Fatalf("kind = %v, want read-too-new", v.Kind)
	}
	if v.MissingFlush.Loc != "x=2" || v.Persisted.Loc != "y=2" {
		t.Fatalf("bug pair = (%s, %s), want (x=2, y=2)", v.MissingFlush.Loc, v.Persisted.Loc)
	}
	// The paper: "PSan determines a flush instruction must be inserted
	// after x = 2 to fix the robustness violation".
	if len(v.Fixes) == 0 {
		t.Fatal("no fixes suggested")
	}
	f := v.Fixes[0]
	if !f.Primary || f.AfterLoc != "x=2" || f.BeforeLoc != "y=2" {
		t.Fatalf("primary fix = %+v, want flush after x=2 before y=2", f)
	}
}

// TestFigure2Robust checks the complementary reads are accepted: r1=2,
// r2=2 corresponds to a strict execution crashing at the end.
func TestFigure2Robust(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	if vs := h.readValue(0, addrX, 2, false, "r1=x"); len(vs) != 0 {
		t.Fatalf("unexpected violation: %v", vs)
	}
	if vs := h.readValue(0, addrY, 2, false, "r2=y"); len(vs) != 0 {
		t.Fatalf("unexpected violation: %v", vs)
	}
}

// TestFigure5 reproduces Figures 4 and 5: five alternating stores,
// post-crash reads r1=y=2 then r2=x=5.
func TestFigure5(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Store(0, addrX, 3, h.m.Intern("x=3"))
	h.m.Store(0, addrY, 4, h.m.Intern("y=4"))
	h.m.Store(0, addrX, 5, h.m.Intern("x=5"))
	h.m.Crash()
	if vs := h.readValue(0, addrY, 2, false, "r1=y"); len(vs) != 0 {
		t.Fatalf("interval should be [2,4), not violated: %v", vs)
	}
	iv := h.c.Interval(0, 0)
	if iv.String() != "[2, 4)" {
		t.Fatalf("interval after r1=y is %v, want [2, 4)", iv)
	}
	vs := h.readValue(0, addrX, 5, false, "r2=x")
	if len(vs) != 1 || vs[0].Kind != ReadTooNew {
		t.Fatalf("want one read-too-new violation, got %v", vs)
	}
	if vs[0].MissingFlush.Loc != "y=4" || vs[0].Persisted.Loc != "x=5" {
		t.Fatalf("bug pair = (%s, %s), want (y=4, x=5)",
			vs[0].MissingFlush.Loc, vs[0].Persisted.Loc)
	}
}

// TestFigure5ReverseOrder drives the same execution with the loads
// reversed, exercising the read-too-old diagnosis path: the same bug
// pair must be reported.
func TestFigure5ReverseOrder(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Store(0, addrX, 3, h.m.Intern("x=3"))
	h.m.Store(0, addrY, 4, h.m.Intern("y=4"))
	h.m.Store(0, addrX, 5, h.m.Intern("x=5"))
	h.m.Crash()
	if vs := h.readValue(0, addrX, 5, false, "r2=x"); len(vs) != 0 {
		t.Fatalf("unexpected violation: %v", vs)
	}
	vs := h.readValue(0, addrY, 2, false, "r1=y")
	if len(vs) != 1 || vs[0].Kind != ReadTooOld {
		t.Fatalf("want one read-too-old violation, got %v", vs)
	}
	if vs[0].MissingFlush.Loc != "y=4" || vs[0].Persisted.Loc != "x=5" {
		t.Fatalf("bug pair = (%s, %s), want (y=4, x=5)",
			vs[0].MissingFlush.Loc, vs[0].Persisted.Loc)
	}
}

// TestFigure6 reproduces Figure 6: per-thread crash intervals make the
// r1=0, r2=1 outcome robust.
func TestFigure6(t *testing.T) {
	h := newHarness(t)
	// Thread 0 issues x=1 but crashes before its flush executes; thread
	// 1 stores and flushes y.
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(1, addrY, 1, h.m.Intern("y=1"))
	h.m.Flush(1, addrY, h.m.Intern("flush y"))
	h.m.Crash()
	if vs := h.readValue(0, addrX, 0, true, "r1=x"); len(vs) != 0 {
		t.Fatalf("r1=0 must be consistent: %v", vs)
	}
	if vs := h.readValue(0, addrY, 1, false, "r2=y"); len(vs) != 0 {
		t.Fatalf("r2=1 must be consistent (per-thread intervals): %v", vs)
	}
}

// TestFigure7 reproduces Figure 7: flush-after-every-store is not enough;
// the fix must go in the second thread.
func TestFigure7(t *testing.T) {
	h := newHarness(t)
	// Thread 0 stores x=1 and is paused before its flush.
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	// Thread 1 reads x, stores y=r1, and flushes it.
	cands := h.m.LoadCandidates(1, addrX)
	h.m.Load(1, addrX, cands[0], h.m.Intern("r1=x"))
	h.c.ObserveRead(1, addrX, cands[0].Store, h.m.Intern("r1=x"))
	h.m.Store(1, addrY, 1, h.m.Intern("y=r1"))
	h.m.Flush(1, addrY, h.m.Intern("flush y"))
	h.m.Crash()
	if vs := h.readValue(0, addrX, 0, true, "r2=x"); len(vs) != 0 {
		t.Fatalf("r2=0 alone is consistent: %v", vs)
	}
	vs := h.readValue(0, addrY, 1, false, "r3=y")
	if len(vs) != 1 || vs[0].Kind != ReadTooNew {
		t.Fatalf("want one read-too-new violation, got %v", vs)
	}
	v := vs[0]
	if v.MissingFlush.Loc != "x=1" || v.Persisted.Loc != "y=r1" {
		t.Fatalf("bug pair = (%s, %s), want (x=1, y=r1)", v.MissingFlush.Loc, v.Persisted.Loc)
	}
	// The primary fix interval (thread 0) is empty — thread 0 stopped
	// right after the store — so the suggested flush must go in thread 1
	// after the load that observed x=1 (§5.2).
	for _, f := range v.Fixes {
		if f.Primary {
			t.Fatalf("primary fix should not exist (thread stopped): %+v", f)
		}
	}
	var alt *Fix
	for i := range v.Fixes {
		if v.Fixes[i].Kind == FixInsertFlush && v.Fixes[i].Thread == 1 {
			alt = &v.Fixes[i]
		}
	}
	if alt == nil {
		t.Fatalf("no alternate fix in thread 1: %v", v.Fixes)
	}
	if alt.AfterLoc != "r1=x" || alt.BeforeLoc != "y=r1" {
		t.Fatalf("alternate fix window = after %q before %q, want after r1=x before y=r1",
			alt.AfterLoc, alt.BeforeLoc)
	}
}

// TestFigure8 reproduces the multi-crash example of Figure 8: reads r=0
// and s=1 leave C(e1) unsatisfiable.
func TestFigure8(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Crash()
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	if vs := h.readValue(0, addrX, 0, true, "r=x"); len(vs) != 0 {
		t.Fatalf("r=0 alone is consistent: %v", vs)
	}
	h.m.Crash()
	vs := h.readValue(0, addrY, 1, false, "s=y")
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %v", vs)
	}
	v := vs[0]
	if v.SubExec != 0 {
		t.Fatalf("violated interval in sub-execution %d, want 0 (C(e1) in the paper)", v.SubExec)
	}
	if v.MissingFlush.Loc != "x=1" || v.Persisted.Loc != "y=1" {
		t.Fatalf("bug pair = (%s, %s), want (x=1, y=1)", v.MissingFlush.Loc, v.Persisted.Loc)
	}
	// Reading s=y also constrains C(e2): the second sub-execution must
	// have crashed before y=2 committed.
	iv := h.c.Interval(1, 0)
	if iv.String() != "[0, 1)" {
		t.Fatalf("C(e2) = %v, want [0, 1)", iv)
	}
}

// TestFigure8RobustReads drives Figure 8 with reads that are consistent:
// r=0 and s=2 (the newer y persisted).
func TestFigure8RobustReads(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Crash()
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.readValue(0, addrX, 0, true, "r=x")
	h.m.Crash()
	if vs := h.readValue(0, addrY, 2, false, "s=y"); len(vs) != 0 {
		t.Fatalf("s=2 must be consistent: %v", vs)
	}
}

// TestSameSubExecReadsUnchecked: reads within the current sub-execution
// never constrain crash intervals.
func TestSameSubExecReadsUnchecked(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	if vs := h.readValue(1, addrX, 2, false, "r=x"); len(vs) != 0 {
		t.Fatalf("same-sub-execution read must not be checked: %v", vs)
	}
	if !h.c.Interval(0, 0).Unconstrained() {
		t.Fatal("interval must remain unconstrained")
	}
}

// TestFlushedCommitStorePattern encodes Figure 1's addChild/readChild:
// flush data, then commit store, then flush the commit store — robust
// even when the crash hits between the two flushes.
func TestFlushedCommitStorePattern(t *testing.T) {
	// Crash after the commit store but before its flush: the post-crash
	// reader either sees the child (data guaranteed flushed) or not.
	for _, sawChild := range []bool{true, false} {
		h := newHarness(t)
		h.m.Store(0, addrY, 42, h.m.Intern("tmp->data=42"))
		h.m.Flush(0, addrY, h.m.Intern("clflush tmp"))
		h.m.Store(0, addrX, 1, h.m.Intern("ptr->child=tmp"))
		// crash before "clflush &ptr->child"
		h.m.Crash()
		var vs []*Violation
		if sawChild {
			vs = h.readValue(0, addrX, 1, false, "read child ptr")
			if len(vs) != 0 {
				t.Fatalf("sawChild: %v", vs)
			}
			vs = h.readValue(0, addrY, 42, false, "read child data")
		} else {
			vs = h.readValue(0, addrX, 0, true, "read child ptr")
		}
		if len(vs) != 0 {
			t.Fatalf("Figure 1 pattern is robust, got %v", vs)
		}
	}
}

// TestUnflushedCommitStorePattern breaks Figure 1 by removing the data
// flush: seeing the commit store without the data is a violation.
func TestUnflushedCommitStorePattern(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrY, 42, h.m.Intern("tmp->data=42"))
	// missing: clflush tmp
	h.m.Store(0, addrX, 1, h.m.Intern("ptr->child=tmp"))
	h.m.Flush(0, addrX, h.m.Intern("clflush &ptr->child"))
	h.m.Crash()
	if vs := h.readValue(0, addrX, 1, false, "read child ptr"); len(vs) != 0 {
		t.Fatalf("reading the commit store alone is consistent: %v", vs)
	}
	vs := h.readValue(0, addrY, 0, true, "read child data")
	if len(vs) != 1 || vs[0].Kind != ReadTooOld {
		t.Fatalf("want read-too-old on stale data, got %v", vs)
	}
	if vs[0].MissingFlush.Loc != "tmp->data=42" {
		t.Fatalf("missing flush on %s, want tmp->data=42", vs[0].MissingFlush.Loc)
	}
}

// TestCheckReadDoesNotMutate: the speculative API leaves state untouched.
func TestCheckReadDoesNotMutate(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Crash()
	cands := h.m.LoadCandidates(0, addrX)
	var old *trace.Store
	for _, c := range cands {
		if c.Store.Value == 1 {
			old = c.Store
		}
	}
	if vs := h.c.CheckRead(0, addrX, old, h.m.Intern("r=x")); len(vs) != 0 {
		t.Fatalf("reading x=1 is consistent, got %v", vs)
	}
	if !h.c.Interval(0, 0).Unconstrained() {
		t.Fatal("CheckRead mutated the constraint state")
	}
}

// TestCheckReadPredictsViolation: CheckRead flags a read that ObserveRead
// would flag, letting the explorer steer around it.
func TestCheckReadPredictsViolation(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	h.readValue(0, addrX, 1, false, "r1=x")
	// Speculatively reading y=2 must be flagged; reading y=1 must not.
	var s1, s2 *trace.Store
	for _, c := range h.m.LoadCandidates(0, addrY) {
		switch c.Store.Value {
		case 1:
			s1 = c.Store
		case 2:
			s2 = c.Store
		}
	}
	if vs := h.c.CheckRead(0, addrY, s2, h.m.Intern("r2=y")); len(vs) != 1 {
		t.Fatalf("CheckRead(y=2) = %v, want 1 violation", vs)
	}
	if vs := h.c.CheckRead(0, addrY, s1, h.m.Intern("r2=y")); len(vs) != 0 {
		t.Fatalf("CheckRead(y=1) = %v, want none", vs)
	}
}

// TestViolationDedup: the same bug observed twice is recorded once.
func TestViolationDedup(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	h.readValue(0, addrX, 1, false, "r1=x")
	h.readValue(0, addrY, 2, false, "r2=y")
	h.readValue(0, addrY, 2, false, "r3=y") // same outcome again
	if n := len(h.c.Violations()); n != 1 {
		t.Fatalf("violations recorded = %d, want 1 (deduplicated)", n)
	}
}

// TestKnownKeysSkipped: a violation whose key the campaign already holds
// (SetKnown) is marked seen but never diagnosed or committed, while a new
// bug in the same execution still gets its full report; the predicate is
// asked once per key, and every crash interval is exactly the one the
// checker has without a predicate.
func TestKnownKeysSkipped(t *testing.T) {
	const addrA, addrB = memmodel.Addr(0x4000), memmodel.Addr(0x5000)
	run := func(known func(string) bool) *Checker {
		h := newHarness(t)
		h.c.SetKnown(known)
		h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
		h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
		h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
		h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
		h.m.Store(1, addrA, 1, h.m.Intern("a=1"))
		h.m.Store(1, addrB, 1, h.m.Intern("b=1"))
		h.m.Store(1, addrA, 2, h.m.Intern("a=2"))
		h.m.Store(1, addrB, 2, h.m.Intern("b=2"))
		h.m.Crash()
		h.readValue(0, addrX, 1, false, "r1=x")
		h.readValue(0, addrY, 2, false, "r2=y") // bug 1
		h.readValue(0, addrY, 2, false, "r3=y") // bug 1 again
		h.readValue(1, addrA, 1, false, "r4=a")
		h.readValue(1, addrB, 2, false, "r5=b") // bug 2
		return h.c
	}
	plain := run(nil)
	all := plain.Violations()
	if len(all) != 2 {
		t.Fatalf("without a predicate: %d violations, want 2", len(all))
	}
	asked := map[string]int{}
	c := run(func(k string) bool {
		asked[k]++
		return k == all[0].Key()
	})
	vs := c.Violations()
	if len(vs) != 1 || vs[0].String() != all[1].String() {
		t.Fatalf("with bug 1 known: violations %v, want only\n%s", vs, all[1])
	}
	if len(asked) != 2 || asked[all[0].Key()] != 1 || asked[all[1].Key()] != 1 {
		t.Fatalf("predicate calls = %v, want each of the two keys once", asked)
	}
	// The two runs build separate traces, so endpoints compare by clock
	// and store ID.
	same := func(a, b intervals.Endpoint) bool {
		as, _ := a.Store.(*trace.Store)
		bs, _ := b.Store.(*trace.Store)
		return a.Clock == b.Clock && (as == nil) == (bs == nil) && (as == nil || as.ID == bs.ID)
	}
	for sub := 0; sub <= c.tr.Current().Index; sub++ {
		for th := globalThread; th < 2; th++ {
			got, want := c.Interval(sub, th), plain.Interval(sub, th)
			if !same(got.Lo, want.Lo) || !same(got.Hi, want.Hi) {
				t.Fatalf("Interval(%d, %d) = %v with the known-key skip, %v without", sub, th, got, want)
			}
		}
	}
}

// TestContinuesPastViolation: after a violation the emptying constraint
// is dropped so an independent second bug is still found.
func TestContinuesPastViolation(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Store(1, addrZ, 1, h.m.Intern("z=1"))
	h.m.Store(1, addrZ+8, 1, h.m.Intern("w=1")) // same line as z
	h.m.Crash()
	h.readValue(0, addrX, 1, false, "r1=x")
	h.readValue(0, addrY, 2, false, "r2=y") // bug 1
	// Thread 1's interval is independent; no violation reading z.
	if vs := h.readValue(0, addrZ, 1, false, "r3=z"); len(vs) != 0 {
		t.Fatalf("independent read violated: %v", vs)
	}
	if n := len(h.c.Violations()); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
}

// TestChecksumRegionDiscardsInvalid: loads inside a checksum region whose
// validation fails constrain nothing (§6.4, violations #33–#35).
func TestChecksumRegionDiscardsInvalid(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	h.c.BeginChecksumRegion(0)
	h.readValue(0, addrX, 1, false, "r1=x")
	h.readValue(0, addrY, 2, false, "r2=y")
	if vs := h.c.EndChecksumRegion(0, false); len(vs) != 0 {
		t.Fatalf("failed checksum must discard loads: %v", vs)
	}
	if n := len(h.c.Violations()); n != 0 {
		t.Fatalf("violations = %d, want 0", n)
	}
	if !h.c.Interval(0, 0).Unconstrained() {
		t.Fatal("discarded loads must not constrain")
	}
}

// TestChecksumRegionValidatesAndReports: if the checksum validates, the
// deferred loads are processed and violations surface normally.
func TestChecksumRegionValidatesAndReports(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	h.c.BeginChecksumRegion(0)
	h.readValue(0, addrX, 1, false, "r1=x")
	h.readValue(0, addrY, 2, false, "r2=y")
	vs := h.c.EndChecksumRegion(0, true)
	if len(vs) != 1 {
		t.Fatalf("validated checksum must report the violation: %v", vs)
	}
	if n := len(h.c.Violations()); n != 1 {
		t.Fatalf("violations = %d, want 1", n)
	}
}

// TestColocationFixSuggested: cross-line bug pairs come with a layout
// suggestion (§5.2 "Alternatively, ... colocating fields").
func TestColocationFixSuggested(t *testing.T) {
	h := newHarness(t)
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrY, 1, h.m.Intern("y=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.m.Store(0, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	h.readValue(0, addrX, 1, false, "r1=x")
	vs := h.readValue(0, addrY, 2, false, "r2=y")
	found := false
	for _, f := range vs[0].Fixes {
		if f.Kind == FixColocate {
			found = true
		}
	}
	if !found {
		t.Fatalf("no colocation fix suggested: %v", vs[0].Fixes)
	}
}

// TestSameLineStoresNeedNoFlush: consecutive writes to one cache line
// persist in TSO order, so the Figure 2 pattern on a single line is
// robust (§1.1 point 2 of the transformation discussion).
func TestSameLineStoresNeedNoFlush(t *testing.T) {
	h := newHarness(t)
	a, b := addrX, addrX+8 // same line
	h.m.Store(0, a, 1, h.m.Intern("a=1"))
	h.m.Store(0, b, 1, h.m.Intern("b=1"))
	h.m.Store(0, a, 2, h.m.Intern("a=2"))
	h.m.Store(0, b, 2, h.m.Intern("b=2"))
	h.m.Crash()
	// b=2 persisted implies a=2 persisted: reading a=1 is impossible at
	// the machine level, so only consistent outcomes are reachable.
	h.readValue(0, addrX, 2, false, "r1=a")
	if vs := h.readValue(0, b, 2, false, "r2=b"); len(vs) != 0 {
		t.Fatalf("same-line TSO prefix must be robust: %v", vs)
	}
}

// TestFrozenStoreRefSurvivesReset: the clock vectors a violation's
// StoreRefs carry are copies, not views of trace records. They read the
// same after the world is Reset and 100 more executions have reused
// every store and event slot with other vectors.
func TestFrozenStoreRefSurvivesReset(t *testing.T) {
	h := newHarness(t)
	// Figure 2 across two threads: thread 1 reads x=2 before storing
	// y=2, so y=2's vector spans both threads. Post-crash, y=2 persisted
	// while x=2 did not: read-too-new, with y=2 as the read-from store.
	h.m.Store(0, addrX, 1, h.m.Intern("x=1"))
	h.m.Store(0, addrX, 2, h.m.Intern("x=2"))
	h.readValue(1, addrX, 2, false, "r=x")
	h.m.Store(1, addrY, 2, h.m.Intern("y=2"))
	h.m.Crash()
	h.readValue(2, addrX, 1, false, "r1=x")
	vs := h.readValue(2, addrY, 2, false, "r2=y")
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	v := vs[0]
	refs := []*StoreRef{v.ReadFrom, v.MissingFlush, v.Persisted}
	for _, e := range []any{v.Interval.Lo.Store, v.Interval.Hi.Store} {
		if r, ok := e.(*StoreRef); ok {
			refs = append(refs, r)
		}
	}
	want := make([]string, len(refs))
	for i, r := range refs {
		want[i] = r.CV.String()
	}
	if got := v.ReadFrom.CV.String(); got != "{t0:2 t1:1}" {
		t.Fatalf("read-from store %v has CV %s, want {t0:2 t1:1}", v.ReadFrom, got)
	}

	for exec := 0; exec < 100; exec++ {
		h.m.Reset()
		h.c.Reset()
		for i := 0; i < 24; i++ {
			th := memmodel.ThreadID(i % 3)
			a := memmodel.Addr(0x4000 + 8*(i%5))
			h.m.Store(th, a, memmodel.Value(exec*100+i), h.m.Intern("other"))
			h.m.DrainOne(th)
			cands := h.m.LoadCandidates((th+1)%3, a)
			h.m.Load((th+1)%3, a, cands[len(cands)-1], h.m.Intern("other-r"))
		}
	}
	for i, r := range refs {
		if got := r.CV.String(); got != want[i] {
			t.Errorf("StoreRef %v: CV %s after reuse, want %s", r, got, want[i])
		}
	}
}

// TestMarkRetireRootsHoldsEndpoints: a constraint-row endpoint that no
// root pins and no index keeps survives a windowed sweep with its
// fields intact, because the checker's retirement hook holds it.
// Without the hook the same sweep releases (and zeroes) it.
func TestMarkRetireRootsHoldsEndpoints(t *testing.T) {
	for _, hook := range []bool{true, false} {
		tr := trace.New()
		tr.SetWindow(1)
		c := New(tr)
		store := func(a memmodel.Addr, v memmodel.Value) *trace.Store {
			s := tr.StoreIssue(0, a, v, memmodel.OpStore, tr.Intern("s"))
			tr.StoreCommit(s)
			return s
		}
		store(addrX, 1)
		s2 := store(addrX, 2)
		s3 := store(addrX, 3)
		store(addrY, 4) // the thread's frontier pins this store only
		tr.Crash()
		// Reading x=2 bounds thread 0's crash point to [2, 3): the
		// endpoints are s2 and s3, neither pinned nor kept by byLoc.
		c.ObserveRead(1, addrX, s2, tr.Intern("r"))
		if hook {
			tr.Retire(c.MarkRetireRoots)
		} else {
			tr.Retire()
		}
		intact := s2.ID == 2 && s2.Value == 2 && s3.ID == 3 && s3.Value == 3
		if intact != hook {
			t.Errorf("hook %v: endpoints intact = %v (s2 %v, s3 %v)", hook, intact, s2, s3)
		}
	}
}
