package persist

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// Distinct cache lines: x and y never interact through line flushes.
const (
	addrX = memmodel.Addr(0x1000)
	addrY = memmodel.Addr(0x2000)
)

// Same cache line as addrX (offset 8 within the 64-byte line).
const addrX2 = addrX + 8

// The backends a machine test runs under: the two weak rules, which
// agree on every expectation below, and strict as well wherever the
// expectation holds under strict persistency too.
var (
	weakModels = []string{"px86", "ptsosyn"}
	allModels  = []string{"px86", "ptsosyn", "strict"}
)

// eachModel runs f as one subtest per named backend, each on a fresh
// machine built from cfg.
func eachModel(t *testing.T, names []string, cfg Config, f func(t *testing.T, m *machine)) {
	t.Helper()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg.Name = name
			f(t, MustNew(cfg).(*machine))
		})
	}
}

// loadDefault performs a load reading the newest legal store — the
// behavior of an execution where everything persisted.
func loadDefault(m *machine, t memmodel.ThreadID, a memmodel.Addr, loc string) memmodel.Value {
	return m.Load(t, a, m.LoadCandidates(t, a)[0], m.Intern(loc))
}

// bufferLen returns the number of pending entries in t's store buffer.
func bufferLen(m *machine, t memmodel.ThreadID) int {
	if r := m.bufs.find(t); r != nil {
		return len(r.vals)
	}
	return 0
}

func values(cands []Candidate) []memmodel.Value {
	var vs []memmodel.Value
	for _, c := range cands {
		vs = append(vs, c.Store.Value)
	}
	return vs
}

func hasValue(cands []Candidate, v memmodel.Value) bool {
	for _, c := range cands {
		if c.Store.Value == v {
			return true
		}
	}
	return false
}

func hasInitial(cands []Candidate) bool {
	for _, c := range cands {
		if c.Store.Initial {
			return true
		}
	}
	return false
}

func TestVolatileLoadSeesLatestStore(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrX, 2, m.Intern("x=2"))
		if got := loadDefault(m, 1, addrX, "r=x"); got != 2 {
			t.Fatalf("load = %d, want 2", got)
		}
	})
}

func TestStoreBufferForwarding(t *testing.T) {
	eachModel(t, weakModels, Config{DelayedCommit: true}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		// Thread 0 sees its own buffered store; thread 1 sees the initial 0.
		if got := loadDefault(m, 0, addrX, "own"); got != 1 {
			t.Fatalf("own load = %d, want 1 (buffer forwarding)", got)
		}
		if got := loadDefault(m, 1, addrX, "other"); got != 0 {
			t.Fatalf("other load = %d, want 0 (not yet committed)", got)
		}
		m.drainAll(0)
		if got := loadDefault(m, 1, addrX, "other2"); got != 1 {
			t.Fatalf("after drain, other load = %d, want 1", got)
		}
	})
}

func TestUnflushedStoreMayOrMayNotSurviveCrash(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if !hasValue(cands, 1) || !hasInitial(cands) {
			t.Fatalf("candidates = %v, want both x=1 and initial", values(cands))
		}
	})
}

func TestClflushGuaranteesPersistence(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Flush(0, addrX, m.Intern("flush x"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if len(cands) != 1 || cands[0].Store.Value != 1 {
			t.Fatalf("candidates = %v, want exactly [1]", values(cands))
		}
	})
}

func TestClflushOptAloneDoesNotGuarantee(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.FlushOpt(0, addrX, m.Intern("flushopt x"))
		// No drain: the flush may not have completed at the crash.
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if !hasInitial(cands) {
			t.Fatalf("candidates = %v, want initial still possible", values(cands))
		}
	})
}

func TestClflushOptPlusSFenceGuarantees(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.FlushOpt(0, addrX, m.Intern("flushopt x"))
		m.SFence(0, m.Intern("sfence"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if len(cands) != 1 || cands[0].Store.Value != 1 {
			t.Fatalf("candidates = %v, want exactly [1]", values(cands))
		}
	})
}

func TestClflushOptPlusRMWGuarantees(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.FlushOpt(0, addrX, m.Intern("flushopt x"))
		// A locked RMW on an unrelated location is a drain operation.
		c := m.LoadCandidates(0, addrY)
		m.FAA(0, addrY, c[0], 1, m.Intern("faa y"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if len(cands) != 1 || cands[0].Store.Value != 1 {
			t.Fatalf("candidates = %v, want exactly [1]", values(cands))
		}
	})
}

func TestDrainByOtherThreadDoesNotComplete(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.FlushOpt(0, addrX, m.Intern("flushopt x"))
		m.SFence(1, m.Intern("sfence by other thread"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if !hasInitial(cands) {
			t.Fatalf("candidates = %v: another thread's drain must not complete t0's flushopt", values(cands))
		}
	})
}

func TestFlushCoversWholeLine(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrX2, 2, m.Intern("x2=2")) // same line
		m.Flush(0, addrX, m.Intern("flush line"))
		m.Crash()
		c1 := append([]Candidate(nil), m.LoadCandidates(0, addrX)...)
		c2 := m.LoadCandidates(0, addrX2)
		if len(c1) != 1 || len(c2) != 1 || c1[0].Store.Value != 1 || c2[0].Store.Value != 2 {
			t.Fatalf("line flush must persist both words: %v %v", values(c1), values(c2))
		}
	})
}

func TestFlushDoesNotCoverOtherLines(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrY, 2, m.Intern("y=2"))
		m.Flush(0, addrX, m.Intern("flush x only"))
		m.Crash()
		cands := m.LoadCandidates(0, addrY)
		if !hasInitial(cands) {
			t.Fatalf("candidates = %v: y is unflushed, initial must be possible", values(cands))
		}
	})
}

func TestFlushDoesNotCoverLaterStores(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Flush(0, addrX, m.Intern("flush"))
		m.Store(0, addrX, 2, m.Intern("x=2")) // after the flush: not covered
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if !hasValue(cands, 1) || !hasValue(cands, 2) {
			t.Fatalf("candidates = %v, want {1, 2}", values(cands))
		}
		if hasInitial(cands) {
			t.Fatalf("candidates = %v: x=1 is guaranteed, initial impossible", values(cands))
		}
	})
}

// Same-line stores persist in TSO order: if the newer store survived, the
// older one did too — so reading the older store then the newer one from
// one line is consistent, but resolving the newer first pins the prefix.
func TestSameLinePrefixConsistency(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrX2, 2, m.Intern("x2=2"))
		m.Crash()
		// Choose x2 = 2 (the second store persisted) — then x MUST be 1.
		cands := m.LoadCandidates(0, addrX2)
		var chosen Candidate
		found := false
		for _, c := range cands {
			if c.Store.Value == 2 {
				chosen, found = c, true
			}
		}
		if !found {
			t.Fatalf("no candidate with value 2: %v", values(cands))
		}
		m.Load(0, addrX2, chosen, m.Intern("r=x2"))
		after := m.LoadCandidates(0, addrX)
		if len(after) != 1 || after[0].Store.Value != 1 {
			t.Fatalf("after resolving x2=2, x candidates = %v, want exactly [1]", values(after))
		}
	})
}

func TestSameLinePrefixConsistencyReverse(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrX2, 2, m.Intern("x2=2"))
		m.Crash()
		// Choose x = initial (nothing persisted) — then x2 must be initial.
		cands := m.LoadCandidates(0, addrX)
		var init Candidate
		found := false
		for _, c := range cands {
			if c.Store.Initial {
				init, found = c, true
			}
		}
		if !found {
			t.Fatal("initial candidate missing")
		}
		m.Load(0, addrX, init, m.Intern("r=x"))
		after := m.LoadCandidates(0, addrX2)
		if len(after) != 1 || !after[0].Store.Initial {
			t.Fatalf("after resolving x=init, x2 candidates = %v, want [initial]", values(after))
		}
	})
}

// Different lines are independent: Figure 4's r1=2, r2=5 outcome.
func TestFigure4Readable(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrY, 2, m.Intern("y=2"))
		m.Store(0, addrX, 3, m.Intern("x=3"))
		m.Store(0, addrY, 4, m.Intern("y=4"))
		m.Store(0, addrX, 5, m.Intern("x=5"))
		m.Crash()
		ycands := m.LoadCandidates(0, addrY)
		if !hasValue(ycands, 2) {
			t.Fatalf("y candidates = %v, want 2 possible", values(ycands))
		}
		for _, c := range ycands {
			if c.Store.Value == 2 {
				m.Load(0, addrY, c, m.Intern("r1=y"))
			}
		}
		xcands := m.LoadCandidates(0, addrX)
		if !hasValue(xcands, 5) {
			t.Fatalf("x candidates = %v, want 5 still possible (different line)", values(xcands))
		}
	})
}

func TestRepeatedReadsAreStable(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrX, 2, m.Intern("x=2"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if len(cands) != 3 { // x=2, x=1, initial
			t.Fatalf("candidates = %v, want 3", values(cands))
		}
		// Pick the middle store x=1.
		for _, c := range cands {
			if c.Store.Value == 1 {
				m.Load(0, addrX, c, m.Intern("r=x"))
			}
		}
		again := m.LoadCandidates(0, addrX)
		if len(again) != 1 || again[0].Store.Value != 1 {
			t.Fatalf("second read candidates = %v, want exactly [1]", values(again))
		}
	})
}

func TestPostCrashStoreShadowsUnresolved(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Crash()
		m.Store(0, addrX, 9, m.Intern("x=9"))
		cands := m.LoadCandidates(0, addrX)
		if len(cands) != 1 || cands[0].Store.Value != 9 {
			t.Fatalf("candidates = %v, want exactly [9] (TSO within sub-execution)", values(cands))
		}
	})
}

// The Figure 8 scenario: e1 stores x=1; y=1, crash, e2 stores y=2 and
// reads x, crash, e3 reads y. Reading y=1 in e3 must be possible (y=2
// unpersisted, y=1 persisted).
func TestFigure8MultiCrashReadability(t *testing.T) {
	eachModel(t, weakModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Store(0, addrY, 1, m.Intern("y=1"))
		m.Crash()
		m.Store(0, addrY, 2, m.Intern("y=2"))
		// r = x reads initial 0.
		xc := m.LoadCandidates(0, addrX)
		if !hasInitial(xc) {
			t.Fatalf("x candidates = %v, want initial possible", values(xc))
		}
		for _, c := range xc {
			if c.Store.Initial {
				m.Load(0, addrX, c, m.Intern("r=x"))
			}
		}
		m.Crash()
		yc := m.LoadCandidates(0, addrY)
		if !hasValue(yc, 1) || !hasValue(yc, 2) || !hasInitial(yc) {
			t.Fatalf("y candidates = %v, want {2, 1, initial}", values(yc))
		}
		// Choose y=1 from the first sub-execution.
		for _, c := range yc {
			if c.Store.Value == 1 {
				m.Load(0, addrY, c, m.Intern("s=y"))
			}
		}
		again := m.LoadCandidates(0, addrY)
		if len(again) != 1 || again[0].Store.Value != 1 {
			t.Fatalf("resolution not sticky: %v", values(again))
		}
	})
}

// Once a newer epoch guarantees a store to a word, older epochs become
// unreachable for that word.
func TestGuaranteedStoreBlocksOlderEpochs(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrY, 1, m.Intern("e0:y=1"))
		m.Crash()
		m.Store(0, addrY, 2, m.Intern("e1:y=2"))
		m.Flush(0, addrY, m.Intern("flush"))
		m.Crash()
		cands := m.LoadCandidates(0, addrY)
		if len(cands) != 1 || cands[0].Store.Value != 2 {
			t.Fatalf("candidates = %v, want exactly [2]", values(cands))
		}
	})
}

func TestCASSemantics(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 5, m.Intern("x=5"))
		c := m.LoadCandidates(0, addrX)
		old, ok := m.CAS(0, addrX, c[0], 5, 6, m.Intern("cas"))
		if !ok || old != 5 {
			t.Fatalf("CAS success path: old=%d ok=%v", old, ok)
		}
		c = m.LoadCandidates(0, addrX)
		old, ok = m.CAS(0, addrX, c[0], 5, 7, m.Intern("cas2"))
		if ok || old != 6 {
			t.Fatalf("CAS failure path: old=%d ok=%v", old, ok)
		}
		if got := loadDefault(m, 0, addrX, "r"); got != 6 {
			t.Fatalf("x = %d, want 6", got)
		}
	})
}

func TestFAASemantics(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		c := m.LoadCandidates(0, addrX)
		if old := m.FAA(0, addrX, c[0], 3, m.Intern("faa")); old != 0 {
			t.Fatalf("FAA old = %d, want 0", old)
		}
		c = m.LoadCandidates(0, addrX)
		if old := m.FAA(0, addrX, c[0], 4, m.Intern("faa2")); old != 3 {
			t.Fatalf("FAA old = %d, want 3", old)
		}
		if got := loadDefault(m, 0, addrX, "r"); got != 7 {
			t.Fatalf("x = %d, want 7", got)
		}
	})
}

func TestRMWDrainsStoreBuffer(t *testing.T) {
	eachModel(t, weakModels, Config{DelayedCommit: true}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		if bufferLen(m, 0) != 1 {
			t.Fatalf("buffer len = %d, want 1", bufferLen(m, 0))
		}
		c := m.LoadCandidates(0, addrY)
		m.FAA(0, addrY, c[0], 1, m.Intern("faa"))
		if bufferLen(m, 0) != 0 {
			t.Fatal("RMW must drain the store buffer")
		}
		if got := loadDefault(m, 1, addrX, "r"); got != 1 {
			t.Fatalf("x = %d after RMW drain, want 1", got)
		}
	})
}

func TestBufferedStoresLostAtCrash(t *testing.T) {
	eachModel(t, weakModels, Config{DelayedCommit: true}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if len(cands) != 1 || !cands[0].Store.Initial {
			t.Fatalf("candidates = %v, want only initial (store never committed)", values(cands))
		}
	})
}

func TestBufferedFlushLostAtCrash(t *testing.T) {
	eachModel(t, weakModels, Config{DelayedCommit: true}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.DrainOne(0) // store commits
		m.Flush(0, addrX, m.Intern("flush"))
		// Flush still in the buffer at crash: it never executed.
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		if !hasInitial(cands) {
			t.Fatalf("candidates = %v, want initial possible (flush never left buffer)", values(cands))
		}
	})
}

func TestTraceRecordsSubExecutions(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Crash()
		m.Store(0, addrX, 2, m.Intern("x=2"))
		tr := m.Trace()
		if tr.NumCrashes() != 1 || len(tr.SubExecs()) != 2 {
			t.Fatalf("trace shape wrong: crashes=%d subs=%d", tr.NumCrashes(), len(tr.SubExecs()))
		}
		if len(tr.Sub(0).Stores()) != 1 || len(tr.Sub(1).Stores()) != 1 {
			t.Fatal("stores not attributed to sub-executions")
		}
	})
}

// TestInvariantErrorPanicValue corrupts a resolved candidate's prefix
// range and checks the machine panics with the typed InvariantError —
// carrying the backend, the check name, address, and interned source
// location — so the explorer can classify and quarantine the schedule
// instead of dying on an anonymous string panic.
func TestInvariantErrorPanicValue(t *testing.T) {
	eachModel(t, allModels, Config{}, func(t *testing.T, m *machine) {
		m.Store(0, addrX, 1, m.Intern("x=1"))
		m.Flush(0, addrX, m.Intern("flush x"))
		m.Crash()
		cands := m.LoadCandidates(0, addrX)
		var bad Candidate
		for _, c := range cands {
			if c.Resolve && c.Epoch >= 0 {
				bad = c
			}
		}
		if !bad.Resolve {
			t.Fatal("no resolving sealed-epoch candidate to corrupt")
		}
		bad.LoNew, bad.HiNew = 2, 1 // inverted range: internal inconsistency
		defer func() {
			r := recover()
			ie, ok := r.(InvariantError)
			if !ok {
				t.Fatalf("panic value %T (%v), want InvariantError", r, r)
			}
			if ie.Model != m.Name() {
				t.Fatalf("Model = %q, want %q", ie.Model, m.Name())
			}
			if ie.Check != "prefix range" {
				t.Fatalf("Check = %q, want \"prefix range\"", ie.Check)
			}
			if ie.Addr != addrX.Word() {
				t.Fatalf("Addr = %v, want %v", ie.Addr, addrX.Word())
			}
			if !strings.Contains(ie.Loc, "r=x") {
				t.Fatalf("Loc = %q, want the access location", ie.Loc)
			}
			for _, want := range []string{m.Name(), "prefix range", "invariant"} {
				if !strings.Contains(ie.Error(), want) {
					t.Fatalf("Error() = %q missing %q", ie.Error(), want)
				}
			}
		}()
		m.resolveChoice(addrX.Word(), bad, m.Intern("r=x"))
		t.Fatal("corrupted candidate did not trip the invariant")
	})
}
