package trace

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// retire runs one full retirement cycle marking the newest committed
// store per word as a root — the minimal machine contract (the real
// backends additionally pin store buffers and live crash-image epochs).
func retire(tr *Trace) {
	newest := map[memmodel.Addr]*Store{}
	for _, sub := range tr.SubExecs() {
		for _, s := range sub.Stores() {
			newest[s.Addr] = s
		}
	}
	tr.Retire(func(pin func(*Store)) {
		for _, s := range newest {
			pin(s)
		}
	})
}

// TestWindowRetirementCompactsEventLog: after a sweep, the physical
// event log holds only the window tail, logical indices keep counting
// from the execution start, and SubEvents/EachSubEvent resolve retained
// events through the compacted log.
func TestWindowRetirementCompactsEventLog(t *testing.T) {
	tr := New()
	tr.SetWindow(4)
	const n = 32
	var last *Store
	for i := 0; i < n; i++ {
		last = issueCommit(tr, 0, memmodel.Addr(0x1000+8*(i%3)), memmodel.Value(i), "s")
	}
	retire(tr)

	if got := len(tr.Events()); got != 4 {
		t.Fatalf("physical event log holds %d entries, want window 4", got)
	}
	rs := tr.Retired()
	if rs.Retirements != 1 || rs.RetainedEvents != 4 || rs.RetiredEvents != n-4 {
		t.Fatalf("Retired() = %+v", rs)
	}
	if rs.RetiredStores == 0 || rs.ReleasedBytes == 0 {
		t.Fatalf("Retired() = %+v: the sweep unlinked or released nothing", rs)
	}

	// Logical indices survive compaction: the last event keeps index n-1
	// and is still reachable through the per-sub index lists.
	evs := tr.SubEvents(0)
	if len(evs) == 0 || evs[len(evs)-1].Index != n-1 {
		t.Fatalf("SubEvents tail index = %v, want %d", evs[len(evs)-1].Index, n-1)
	}
	walked := 0
	tr.EachSubEvent(0, func(*Event) { walked++ })
	if walked != 4 {
		t.Fatalf("EachSubEvent walked %d retained events, want 4", walked)
	}

	// New events appended after the sweep continue the logical numbering.
	tr.Load(0, last.Addr, last, memmodel.OpLoad, tr.Intern("r"))
	evs = tr.SubEvents(0)
	if evs[len(evs)-1].Index != n {
		t.Fatalf("post-sweep event index = %d, want %d", evs[len(evs)-1].Index, n)
	}
}

// TestWindowStatsCountWholeExecution: Stats on a windowed trace must
// report totals over the whole execution (retired events folded in)
// while splitting retained vs retired.
func TestWindowStatsCountWholeExecution(t *testing.T) {
	tr := New()
	tr.SetWindow(4)
	const n = 20
	for i := 0; i < n; i++ {
		issueCommit(tr, 0, 0x1000, memmodel.Value(i), "s")
	}
	retire(tr)
	s := tr.Stats()
	if s.Events != n || s.Stores != n {
		t.Fatalf("whole-execution counts: %d events / %d stores, want %d/%d", s.Events, s.Stores, n, n)
	}
	if s.RetainedEvents != 4 || s.RetiredEvents != n-4 {
		t.Fatalf("retained/retired split = %d/%d, want 4/%d", s.RetainedEvents, s.RetiredEvents, n-4)
	}
	if !strings.Contains(s.String(), "retired") {
		t.Fatalf("String() lacks the retirement suffix: %q", s.String())
	}
}

// TestWindowDumpSkipsRetiredPrefix: Dump announces the retired prefix
// and lists only the retained tail, with original logical indices.
func TestWindowDumpSkipsRetiredPrefix(t *testing.T) {
	tr := New()
	tr.SetWindow(4)
	for i := 0; i < 12; i++ {
		issueCommit(tr, 0, 0x1000, memmodel.Value(i), "s")
	}
	retire(tr)
	var b strings.Builder
	tr.Dump(&b)
	out := b.String()
	if !strings.Contains(out, "8 events retired (window 4)") {
		t.Fatalf("dump lacks retirement banner:\n%s", out)
	}
	if !strings.Contains(out, "   11  t0") || strings.Contains(out, "    0  t0") {
		t.Fatalf("dump should list only the tail with logical indices:\n%s", out)
	}
}

// TestWindowPinsCVClosure: a pinned store keeps its clock-vector
// closure resolvable — StoreByClock on the components of a retained
// store's CV must never return an unlinked entry.
func TestWindowPinsCVClosure(t *testing.T) {
	tr := New()
	tr.SetWindow(2)
	a := issueCommit(tr, 0, 0x1000, 1, "a")
	// Thread 1 reads a, so its next store's CV includes thread 0's clock.
	tr.Load(1, 0x1000, a, memmodel.OpLoad, tr.Intern("r=a"))
	b := issueCommit(tr, 1, 0x2000, 2, "b")
	for i := 0; i < 16; i++ {
		issueCommit(tr, 0, 0x3000, memmodel.Value(i), "pad")
	}
	tr.Retire(func(pin func(*Store)) {
		pin(b) // pins a transitively through b's CV
	})

	sub := tr.Current()
	var missing bool
	// Resolve b's CV components the way the checker's LOAD-PREV bounds
	// do; each must still be present.
	if got := sub.StoreByClock(0, a.Clock); got != a {
		missing = true
	}
	if got := sub.StoreByClock(1, b.Clock); got != b {
		missing = true
	}
	if missing {
		t.Fatal("CV closure of a pinned store was swept")
	}
}

// TestUnboundedTraceNeverRetires: with window 0 the retirement API is
// inert and Stats/Dump render exactly as the classic pipeline.
func TestUnboundedTraceNeverRetires(t *testing.T) {
	tr := New()
	for i := 0; i < 8; i++ {
		issueCommit(tr, 0, 0x1000, memmodel.Value(i), "s")
	}
	if tr.WindowSize() != 0 {
		t.Fatal("default trace has a window")
	}
	if rs := tr.Retired(); rs != (RetireStats{}) {
		t.Fatalf("unbounded Retired() = %+v", rs)
	}
	if s := tr.Stats(); s.Retirements != 0 || strings.Contains(s.String(), "retired") {
		t.Fatalf("unbounded Stats carries retirement suffix: %q", s.String())
	}
}

// TestWindowHeldStoreSurvivesSweep: a store the sweep unlinks but
// something still references — a retained event's RF, or a checker
// endpoint marked with HoldStore — keeps its slot: its fields stay
// intact and no allocation reuses it. Once nothing holds it, a later
// sweep releases it to the free list and the slot is reused.
func TestWindowHeldStoreSurvivesSweep(t *testing.T) {
	for _, holder := range []string{"event", "endpoint"} {
		t.Run(holder, func(t *testing.T) {
			tr := New()
			tr.SetWindow(8)
			// Three stores by one thread to x: s1 stays in x's byLoc list
			// as its thread's first entry, s3 is pinned as x's newest, and
			// s2 is neither — only what holds it below keeps its slot.
			issueCommit(tr, 0, 0x1000, 1, "s1")
			s2 := issueCommit(tr, 0, 0x1000, 2, "s2")
			tr.Load(1, 0x1000, s2, memmodel.OpLoad, tr.Intern("r=s2"))
			s3 := issueCommit(tr, 0, 0x1000, 3, "s3")
			// Thread 1 reads on past s2, so its clock-vector frontier no
			// longer pins s2.
			tr.Load(1, 0x1000, s3, memmodel.OpLoad, tr.Intern("r=s3"))
			pad := 0
			padStores := func(n int) {
				for i := 0; i < n; i++ {
					issueCommit(tr, 2, 0x2000, memmodel.Value(pad), "pad")
					pad++
				}
			}
			if holder == "endpoint" {
				padStores(16) // pushes the load of s2 out of the window
			}
			sweep := func(hold bool) {
				tr.Retire(func(pin func(*Store)) {
					if hold {
						tr.HoldStore(s2)
					}
					pin(tr.Current().LastTo(0x1000))
					pin(tr.Current().LastTo(0x2000))
				})
			}
			sweep(holder == "endpoint")
			if got := tr.Current().StoreByClock(0, s2.Clock); got != nil {
				t.Fatal("held but unpinned s2 is still indexed")
			}
			if s2.gen&1 != 0 || s2.Value != 2 || s2.Loc != tr.Intern("s2") {
				t.Fatalf("held s2 was released: gen %d value %d", s2.gen, s2.Value)
			}
			for i := 0; i < 64; i++ {
				if tr.StoreIssue(3, 0x3000, 0, memmodel.OpStore, 0) == s2 {
					t.Fatal("allocation reused the held s2 slot")
				}
			}

			// Nothing holds s2 any more: the endpoint is not re-marked and
			// the load that read it has left the window.
			padStores(16)
			sweep(false)
			if s2.gen&1 == 0 {
				t.Fatal("s2 not released once nothing held it")
			}
			reused := false
			for i := 0; i < 256 && !reused; i++ {
				reused = tr.StoreIssue(3, 0x3000, 0, memmodel.OpStore, 0) == s2
			}
			if !reused {
				t.Fatal("released s2 slot never reused")
			}
			if s2.gen&1 != 0 {
				t.Fatal("reused slot kept the released generation")
			}
		})
	}
}

// TestWindowRowsStayBounded: a windowed trace that issues 1M
// overwriting stores to 64 words keeps every thread row at its live
// span — sweeps trim the retired prefix into the row's clock base — and
// StoreByClock still resolves the newest stores.
func TestWindowRowsStayBounded(t *testing.T) {
	tr := New()
	tr.SetWindow(64)
	loc := tr.Intern("s")
	const n = 1 << 20
	var last [4]*Store
	for i := 0; i < n; i++ {
		th := memmodel.ThreadID(i % 4)
		st := tr.StoreIssue(th, memmodel.Addr(0x1000+8*(i%64)), memmodel.Value(i), memmodel.OpStore, loc)
		tr.StoreCommit(st)
		last[th] = st
		if i%64 == 63 {
			sub := tr.Current()
			tr.Retire(func(pin func(*Store)) {
				for w := 0; w < 64; w++ {
					pin(sub.LastTo(memmodel.Addr(0x1000 + 8*w)))
				}
			})
		}
	}
	sub := tr.Current()
	for i := range sub.threads {
		if r := &sub.threads[i]; cap(r.stores) > 1024 {
			t.Errorf("thread %d row capacity %d after %d stores, want bounded", r.t, cap(r.stores), n)
		}
	}
	for th, st := range last {
		if got := sub.StoreByClock(memmodel.ThreadID(th), st.Clock); got != st {
			t.Errorf("StoreByClock(%d, %d) = %v, want %v", th, st.Clock, got, st)
		}
	}
}
