package pmem

import (
	"testing"

	"repro/internal/memmodel"
)

const (
	addrX = memmodel.Addr(0x2000)
	addrY = memmodel.Addr(0x3000)
)

func TestInlineStoreLoad(t *testing.T) {
	w := NewWorld(Config{CrashTarget: -1})
	th := w.Thread(0)
	th.Store(addrX, 7, "x=7")
	if got := th.Load(addrX, "r=x"); got != 7 {
		t.Fatalf("load = %d, want 7", got)
	}
}

func TestCrashTargetStopsPhase(t *testing.T) {
	w := NewWorld(Config{CrashTarget: 1}) // crash before the 2nd fence-like op
	reached := false
	crashed := w.RunPhase(func(w *World) {
		th := w.Thread(0)
		th.Store(addrX, 1, "x=1")
		th.Flush(addrX, "flush 0") // fence-like op #0
		th.Store(addrY, 1, "y=1")
		th.Flush(addrY, "flush 1") // fence-like op #1: crash fires here
		reached = true
	})
	if !crashed {
		t.Fatal("phase should have crashed")
	}
	if reached {
		t.Fatal("code after the crash point must not run")
	}
	w.Crash()
	// x was flushed before the crash; y's flush never executed.
	th := w.Thread(0)
	if got := th.Load(addrX, "r=x"); got != 1 {
		t.Fatalf("x = %d, want 1 (flushed)", got)
	}
}

func TestCrashTargetPastEndRunsToCompletion(t *testing.T) {
	w := NewWorld(Config{CrashTarget: 100})
	crashed := w.RunPhase(func(w *World) {
		th := w.Thread(0)
		th.Store(addrX, 1, "x=1")
		th.Flush(addrX, "flush")
	})
	if crashed {
		t.Fatal("phase must complete when the target is past the end")
	}
	if w.FenceOps() != 1 {
		t.Fatalf("FenceOps = %d, want 1", w.FenceOps())
	}
}

func TestPersistHelperCoversRange(t *testing.T) {
	w := NewWorld(Config{CrashTarget: -1})
	th := w.Thread(0)
	base := w.Heap.AllocLines(2) // two cache lines
	th.Store(base, 1, "a")
	th.Store(base+memmodel.CacheLineSize, 2, "b")
	th.Persist(base, 2*memmodel.CacheLineSize, "persist")
	w.Crash()
	if got := th.Load(base, "ra"); got != 1 {
		t.Fatalf("first line = %d, want 1", got)
	}
	if got := th.Load(base+memmodel.CacheLineSize, "rb"); got != 2 {
		t.Fatalf("second line = %d, want 2", got)
	}
}

func TestSpawnedThreadsInterleaveDeterministically(t *testing.T) {
	run := func(seed int64) []memmodel.Value {
		w := NewWorld(Config{CrashTarget: -1, Seed: seed})
		var order []memmodel.Value
		w.Spawn(0, func(th *Thread) {
			th.Store(addrX, 1, "a1")
			th.Store(addrX, 2, "a2")
		})
		w.Spawn(1, func(th *Thread) {
			th.Store(addrX, 3, "b1")
			th.Store(addrX, 4, "b2")
		})
		w.RunThreads()
		for _, st := range w.M.Trace().Sub(0).Stores() {
			order = append(order, st.Value)
		}
		return order
	}
	a1, a2 := run(42), run(42)
	if len(a1) != 4 {
		t.Fatalf("stores = %d, want 4", len(a1))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed produced different interleavings: %v vs %v", a1, a2)
		}
	}
	// Different seeds eventually produce a different interleaving.
	diff := false
	for seed := int64(0); seed < 32 && !diff; seed++ {
		b := run(seed)
		for i := range b {
			if b[i] != a1[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("no seed produced a different interleaving")
	}
}

func TestSpawnedThreadCrashUnwindsAll(t *testing.T) {
	w := NewWorld(Config{CrashTarget: 0, Seed: 1})
	after := false
	w.Spawn(0, func(th *Thread) {
		th.Store(addrX, 1, "x=1")
		th.Flush(addrX, "flush") // crash target 0 fires here
		after = true
	})
	w.Spawn(1, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Store(addrY, memmodel.Value(i), "y")
		}
	})
	crashed := w.RunPhase(func(w *World) { w.RunThreads() })
	if !crashed {
		t.Fatal("RunThreads must propagate the crash")
	}
	if after {
		t.Fatal("operations after the crash point must not run")
	}
}

func TestOpBudgetAborts(t *testing.T) {
	w := NewWorld(Config{CrashTarget: -1, OpLimit: 100})
	defer func() {
		if _, ok := recover().(AbortSignal); !ok {
			t.Fatal("expected AbortSignal")
		}
	}()
	th := w.Thread(0)
	for {
		th.Load(addrX, "spin")
	}
}

func TestChooseAvoidingViolationsFindsBugAndSteersAround(t *testing.T) {
	w := NewWorld(Config{CrashTarget: -1, Chooser: ChooseAvoidingViolations(ChooseNewest)})
	th := w.Thread(0)
	th.Store(addrX, 1, "x=1")
	th.Store(addrY, 1, "y=1")
	th.Store(addrX, 2, "x=2")
	th.Store(addrY, 2, "y=2")
	w.Crash()
	// Read x=1 first: any later y=2 read would violate. The chooser must
	// flag the violation but return a consistent value.
	cands := w.M.LoadCandidates(0, addrX)
	for _, c := range cands {
		if c.Store.Value == 1 {
			w.M.Load(0, addrX, c, w.M.Intern("r1=x"))
			w.Checker.ObserveRead(0, addrX, c.Store, w.M.Intern("r1=x"))
		}
	}
	got := th.Load(addrY, "r2=y")
	if got == 2 {
		t.Fatalf("chooser picked the violating store y=2")
	}
	if n := len(w.Checker.Violations()); n != 1 {
		t.Fatalf("violations = %d, want 1 (flagged while steering around)", n)
	}
}

func TestHeapAlignment(t *testing.T) {
	h := NewHeap()
	a := h.Alloc(24)
	if a%memmodel.WordSize != 0 {
		t.Fatalf("Alloc not word aligned: %v", a)
	}
	b := h.AllocLines(1)
	if b%memmodel.CacheLineSize != 0 {
		t.Fatalf("AllocLines not line aligned: %v", b)
	}
	c := h.Alloc(8)
	if c < b+memmodel.CacheLineSize {
		t.Fatalf("allocations overlap: %v then %v", b, c)
	}
	if h.Used() == 0 {
		t.Fatal("Used() should be positive")
	}
}

func TestHeapBadArgsPanic(t *testing.T) {
	h := NewHeap()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	h.AllocAligned(8, 3)
}

func TestCASAndFAAThroughThread(t *testing.T) {
	w := NewWorld(Config{CrashTarget: -1})
	th := w.Thread(0)
	th.Store(addrX, 10, "x=10")
	if old, ok := th.CAS(addrX, 10, 20, "cas"); !ok || old != 10 {
		t.Fatalf("CAS = (%d, %v), want (10, true)", old, ok)
	}
	if old := th.FAA(addrX, 5, "faa"); old != 20 {
		t.Fatalf("FAA = %d, want 20", old)
	}
	if got := th.Load(addrX, "r"); got != 25 {
		t.Fatalf("x = %d, want 25", got)
	}
}

func TestChecksumRegionThroughThread(t *testing.T) {
	w := NewWorld(Config{CrashTarget: -1})
	th := w.Thread(0)
	th.Store(addrX, 1, "x=1")
	th.Store(addrY, 1, "y=1")
	th.Store(addrX, 2, "x=2")
	th.Store(addrY, 2, "y=2")
	w.Crash()
	th.BeginChecksum()
	// These reads would violate, but the checksum will fail.
	for _, c := range w.M.LoadCandidates(0, addrX) {
		if c.Store.Value == 1 {
			w.M.Load(0, addrX, c, w.M.Intern("r1=x"))
			w.Checker.ObserveRead(0, addrX, c.Store, w.M.Intern("r1=x"))
		}
	}
	for _, c := range w.M.LoadCandidates(0, addrY) {
		if c.Store.Value == 2 {
			w.M.Load(0, addrY, c, w.M.Intern("r2=y"))
			w.Checker.ObserveRead(0, addrY, c.Store, w.M.Intern("r2=y"))
		}
	}
	th.EndChecksum(false)
	if n := len(w.Checker.Violations()); n != 0 {
		t.Fatalf("violations = %d, want 0 (checksum failed, data discarded)", n)
	}
}
