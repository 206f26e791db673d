package trace

import (
	"reflect"
	"testing"

	"repro/internal/memmodel"
)

const (
	addrX = memmodel.Addr(0x1000)
	addrY = memmodel.Addr(0x2000)
)

// issueCommit is a helper that issues and immediately commits a store.
func issueCommit(tr *Trace, t memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc string) *Store {
	st := tr.StoreIssue(t, a, v, memmodel.OpStore, tr.Intern(loc))
	tr.StoreCommit(st)
	return st
}

func TestClocksArePerThreadAndUnique(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "s1")
	s2 := issueCommit(tr, 0, addrY, 2, "s2")
	s3 := issueCommit(tr, 1, addrX, 3, "s3")
	if s1.Clock != 1 || s2.Clock != 2 {
		t.Fatalf("thread 0 clocks = %d, %d; want 1, 2", s1.Clock, s2.Clock)
	}
	if s3.Clock != 1 {
		t.Fatalf("thread 1 clock = %d; want 1", s3.Clock)
	}
}

func TestSeqTracksCommitOrderNotIssueOrder(t *testing.T) {
	tr := New()
	a := tr.StoreIssue(0, addrX, 1, memmodel.OpStore, tr.Intern("a"))
	b := tr.StoreIssue(1, addrY, 2, memmodel.OpStore, tr.Intern("b"))
	// b commits before a: TSO order is b, a even though a issued first.
	tr.StoreCommit(b)
	tr.StoreCommit(a)
	if b.Seq != 1 || a.Seq != 2 {
		t.Fatalf("seq: b=%d a=%d; want b=1 a=2", b.Seq, a.Seq)
	}
	got := tr.Current().Stores()
	if len(got) != 2 || got[0] != b || got[1] != a {
		t.Fatalf("commit order wrong: %v", got)
	}
}

func TestUncommittedStoreHasZeroSeq(t *testing.T) {
	tr := New()
	st := tr.StoreIssue(0, addrX, 1, memmodel.OpStore, tr.Intern("st"))
	if st.Seq != 0 {
		t.Fatalf("issued store has Seq %d, want 0", st.Seq)
	}
	if len(tr.Current().StoresTo(addrX)) != 0 {
		t.Fatal("uncommitted store appears in per-location history")
	}
}

func TestDoubleCommitPanics(t *testing.T) {
	tr := New()
	st := tr.StoreIssue(0, addrX, 1, memmodel.OpStore, tr.Intern("st"))
	tr.StoreCommit(st)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double commit")
		}
	}()
	tr.StoreCommit(st)
}

func TestLoadMergesStoreCVWithinSubExec(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "x=1")
	// Thread 1 reads x=1, then stores y: the y-store must carry the
	// happens-before edge from x=1 (the Figure 7 pattern).
	tr.Load(1, addrX, s1, memmodel.OpLoad, tr.Intern("r1=x"))
	s2 := issueCommit(tr, 1, addrY, 1, "y=r1")
	if !tr.HappensBefore(s1, s2) {
		t.Fatalf("x=1 should happen before y=r1: tr.StoreCV(s1)=%v tr.StoreCV(s2)=%v", tr.StoreCV(s1), tr.StoreCV(s2))
	}
	if tr.HappensBefore(s2, s1) {
		t.Fatal("happens-before must be asymmetric")
	}
}

func TestLoadAcrossCrashDoesNotMergeCV(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "x=1")
	tr.Crash()
	tr.Load(0, addrX, s1, memmodel.OpLoad, tr.Intern("post r=x"))
	s2 := issueCommit(tr, 0, addrY, 7, "post y=7")
	if tr.HappensBefore(s1, s2) {
		t.Fatal("stores in different sub-executions are not hb-related")
	}
	// The post-crash thread's CV must not contain pre-crash clocks.
	if got := tr.StoreCV(s2).At(0); got != 1 {
		t.Fatalf("post-crash thread clock = %d, want 1 (fresh)", got)
	}
}

func TestCrashResetsSeqAndStartsNewSubExec(t *testing.T) {
	tr := New()
	issueCommit(tr, 0, addrX, 1, "x=1")
	issueCommit(tr, 0, addrX, 2, "x=2")
	tr.Crash()
	if tr.NumCrashes() != 1 {
		t.Fatalf("NumCrashes = %d, want 1", tr.NumCrashes())
	}
	s3 := issueCommit(tr, 0, addrX, 3, "x=3")
	if s3.Seq != 1 {
		t.Fatalf("post-crash seq = %d, want 1 (reset)", s3.Seq)
	}
	if s3.SubExec != 1 {
		t.Fatalf("post-crash SubExec = %d, want 1", s3.SubExec)
	}
	if s3.Clock != 1 {
		t.Fatalf("post-crash clock = %d, want 1 (CV map reset)", s3.Clock)
	}
}

func TestInitialStore(t *testing.T) {
	tr := New()
	i1 := tr.Initial(addrX)
	i2 := tr.Initial(addrX + 3) // same word
	if i1 != i2 {
		t.Fatal("Initial must be cached per word")
	}
	if !i1.Initial || i1.Seq != 0 || i1.Clock != 0 || !tr.StoreCV(i1).IsBottom() {
		t.Fatalf("initial store malformed: %+v", i1)
	}
	st := issueCommit(tr, 0, addrX, 1, "x=1")
	if !tr.HappensBefore(i1, st) {
		t.Fatal("initial store must happen before every store")
	}
	if tr.HappensBefore(st, i1) {
		t.Fatal("no store happens before an initial store")
	}
}

func TestNextWithinSubExec(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "x=1") // read-from store
	s2 := issueCommit(tr, 0, addrX, 2, "x=2") // first after, thread 0
	issueCommit(tr, 0, addrX, 3, "x=3")       // not first
	s4 := issueCommit(tr, 1, addrX, 4, "x=4") // first after, thread 1
	issueCommit(tr, 0, addrY, 9, "y=9")       // different location
	tr.Crash()
	got := tr.Next(s1, 1)
	if len(got) != 2 || got[0] != s2 || got[1] != s4 {
		t.Fatalf("Next = %v, want [x=2 x=4]", got)
	}
}

func TestNextFromInitialStore(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "x=1")
	tr.Crash()
	init := tr.Initial(addrX)
	got := tr.Next(init, 1)
	if len(got) != 1 || got[0] != s1 {
		t.Fatalf("Next(init) = %v, want [x=1]", got)
	}
}

func TestNextSpansInterveningSubExecs(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "e0:x=1")
	tr.Crash()
	s2 := issueCommit(tr, 0, addrX, 2, "e1:x=2")
	issueCommit(tr, 0, addrX, 3, "e1:x=3")
	tr.Crash()
	// Load in e2 reading s1 from e0: next must include the first store
	// to x TSO-after s1 in e0 (none) and the first store to x per thread
	// in e1 (s2).
	got := tr.Next(s1, 2)
	if len(got) != 1 || got[0] != s2 {
		t.Fatalf("Next = %v, want [e1:x=2]", got)
	}
}

func TestNextExcludesCurrentSubExec(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "e0:x=1")
	tr.Crash()
	issueCommit(tr, 0, addrX, 5, "e1:x=5")
	// Load in e1 reading s1: the e1 store must NOT appear via the
	// intervening-sub-execution clause (it is handled by TSO-within-e1
	// memory semantics, not by crash constraints)... but it IS TSO
	// ordered after s1? No: s1 is in e0, the e1 store is in a different
	// sub-execution that equals ecur, so it is excluded.
	got := tr.Next(s1, 1)
	if len(got) != 0 {
		t.Fatalf("Next = %v, want []", got)
	}
}

func TestGetExec(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "x=1")
	tr.Crash()
	s2 := issueCommit(tr, 0, addrX, 2, "x=2")
	if tr.GetExec(s1).Index != 0 || tr.GetExec(s2).Index != 1 {
		t.Fatalf("GetExec wrong: %d, %d", tr.GetExec(s1).Index, tr.GetExec(s2).Index)
	}
}

func TestEachSubEvent(t *testing.T) {
	tr := New()
	issueCommit(tr, 0, addrX, 1, "a")
	issueCommit(tr, 1, addrY, 2, "b")
	tr.Load(0, addrY, nil, memmodel.OpLoad, tr.Intern("c"))
	tr.Crash()
	issueCommit(tr, 0, addrX, 3, "d")
	var got []string
	tr.EachSubEvent(0, func(ev *Event) { got = append(got, tr.LocString(ev.Loc)) })
	if want := []string{"a", "b", "c", ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("EachSubEvent(0) labels = %q, want %q (the crash event last)", got, want)
	}
}

func TestRMWStoreKind(t *testing.T) {
	tr := New()
	st := tr.StoreIssue(0, addrX, 5, memmodel.OpCAS, tr.Intern("cas"))
	tr.StoreCommit(st)
	if st.Kind != memmodel.OpCAS {
		t.Fatalf("kind = %v, want cas", st.Kind)
	}
}

// The store CV includes the issuing thread's own new clock — SCV(st)(τ)
// is the clock of st itself (§5.1).
func TestStoreCVIncludesOwnClock(t *testing.T) {
	tr := New()
	s1 := issueCommit(tr, 0, addrX, 1, "s1")
	s2 := issueCommit(tr, 0, addrY, 2, "s2")
	if tr.StoreCV(s1).At(0) != s1.Clock || tr.StoreCV(s2).At(0) != s2.Clock {
		t.Fatal("SCV(st)(τ) must equal getcl(st)")
	}
	if !tr.HappensBefore(s1, s2) {
		t.Fatal("program order implies happens-before")
	}
}

// SCV(st)(τ′) for τ′ ≠ τ is the clock of the last store of τ′ that
// happens before st — the property LOAD-PREV relies on (§5.1).
func TestStoreCVRecordsLastHBStoreOfOtherThreads(t *testing.T) {
	tr := New()
	a1 := issueCommit(tr, 0, addrX, 1, "a1")
	a2 := issueCommit(tr, 0, addrY, 2, "a2")
	tr.Load(1, addrY, a2, memmodel.OpLoad, tr.Intern("r=y"))
	b1 := issueCommit(tr, 1, addrX, 3, "b1")
	if got := tr.StoreCV(b1).At(0); got != a2.Clock {
		t.Fatalf("SCV(b1)(t0) = %d, want %d (clock of a2)", got, a2.Clock)
	}
	if !tr.HappensBefore(a1, b1) || !tr.HappensBefore(a2, b1) {
		t.Fatal("both a1 and a2 must happen before b1")
	}
}

func TestLoadEventRecordsValue(t *testing.T) {
	tr := New()
	s := issueCommit(tr, 0, addrX, 42, "x=42")
	ev := tr.Load(1, addrX, s, memmodel.OpLoad, tr.Intern("r=x"))
	if ev.Value != 42 || ev.RF != s {
		t.Fatalf("load event = %+v", ev)
	}
}
