package pmem

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/memmodel"
	"repro/internal/persist"
)

// schedOp is one completed spawned-thread operation.
type schedOp struct {
	thread memmodel.ThreadID
	kind   memmodel.OpKind
	addr   memmodel.Addr
}

// schedCase is one schedule-equivalence scenario: a world configuration
// plus spawned bodies, one of which may panic partway through.
type schedCase struct {
	seed     int64
	threads  int
	crash    int // world crash target (-1: none)
	opLimit  int // 0: the default budget
	drain    bool
	panicker int // thread whose body panics (-1: none)
	panicAt  int // ops the panicker completes before panicking
}

// schedOutcome is everything a scheduler run makes observable: the
// completed operations in order, the value RunThreads panicked with,
// the world's counters, and the random source's next draw.
type schedOutcome struct {
	ops      []schedOp
	panicked string
	worldOps int
	fences   int
	nextRand int64
}

func (c schedCase) world() *World {
	cfg := Config{Seed: c.seed, CrashTarget: c.crash, OpLimit: c.opLimit}
	if c.drain {
		cfg.Model = persist.Config{DelayedCommit: true}
		cfg.RandomDrainPercent = 25
	}
	return NewWorld(cfg)
}

// body returns thread i's program: a seed-dependent mix of operation
// kinds over three lines, logging each operation that completes.
func (c schedCase) body(i int, log *[]schedOp) func(*Thread) {
	n := 3 + (i*5+int(c.seed))%7
	return func(th *Thread) {
		for j := 0; j < n; j++ {
			if i == c.panicker && j == c.panicAt {
				panic(fmt.Sprintf("thread %d gives up", i))
			}
			a := addrX + memmodel.Addr(memmodel.CacheLineSize*((i+j)%3))
			var k memmodel.OpKind
			switch (i + j + int(c.seed)) % 5 {
			case 0:
				th.Store(a, memmodel.Value(j+1), "store")
				k = memmodel.OpStore
			case 1:
				th.Load(a, "load")
				k = memmodel.OpLoad
			case 2:
				th.Flush(a, "flush")
				k = memmodel.OpFlush
			case 3:
				th.SFence("sfence")
				k, a = memmodel.OpSFence, 0
			case 4:
				th.CAS(a, 0, memmodel.Value(j+1), "cas")
				k = memmodel.OpCAS
			}
			*log = append(*log, schedOp{th.ID, k, a})
		}
	}
}

func (c schedCase) outcome(w *World, log *[]schedOp, run func()) (out schedOutcome) {
	func() {
		defer func() {
			if r := recover(); r != nil {
				out.panicked = fmt.Sprintf("%T %v", r, r)
			}
		}()
		run()
	}()
	out.ops = *log
	out.worldOps, out.fences = w.Ops(), w.FenceOps()
	out.nextRand = w.Rand().Int63()
	return out
}

func (c schedCase) runBaton() schedOutcome {
	w := c.world()
	var log []schedOp
	for i := 0; i < c.threads; i++ {
		w.Spawn(memmodel.ThreadID(i), c.body(i, &log))
	}
	return c.outcome(w, &log, w.RunThreads)
}

func (c schedCase) runReference() schedOutcome {
	w := c.world()
	var log []schedOp
	var threads []*refThread
	for i := 0; i < c.threads; i++ {
		refSpawn(w, &threads, memmodel.ThreadID(i), c.body(i, &log))
	}
	return c.outcome(w, &log, func() { refRunThreads(w, threads) })
}

// TestBatonSchedulerMatchesChannelReference pins the baton handoff to
// the channel scheduler it replaced: for every seed, thread count and
// ending — running out, a crash target, the op budget, a panicking
// body — both produce the same operations in the same order, end with
// the same signal, and leave the random source at the same position.
func TestBatonSchedulerMatchesChannelReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for seed := int64(0); seed < 200; seed++ {
		for n := 1; n <= 4; n++ {
			base := schedCase{seed: seed, threads: n, crash: -1, panicker: -1, drain: seed%2 == 1}
			crash, budget, panicky := base, base, base
			crash.crash = int(seed % 6)
			budget.opLimit = 3 + int(seed%15)
			panicky.panicker, panicky.panicAt = int(seed)%n, int(seed/4)%4
			for _, c := range []schedCase{base, crash, budget, panicky} {
				got, want := c.runBaton(), c.runReference()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v:\nbaton     %+v\nreference %+v", c, got, want)
				}
			}
		}
	}
}

// TestRunThreadsCrashLeaksNoGoroutines crashes two-thread phases at
// the first fence. Whenever the crashing thread runs before its sibling
// got its first grant, the unwind must still finish the sibling's
// goroutine instead of leaving it parked with its World.
func TestRunThreadsCrashLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for seed := int64(0); seed < 200; seed++ {
		w := NewWorld(Config{Seed: seed, CrashTarget: 0})
		for id := memmodel.ThreadID(0); id < 2; id++ {
			w.Spawn(id, func(th *Thread) { th.SFence("sfence") })
		}
		if !w.RunPhase(func(w *World) { w.RunThreads() }) {
			t.Fatalf("seed %d: the phase must crash", seed)
		}
	}
	// Finished goroutines exit asynchronously after handing the baton
	// back; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines leaked", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkRunThreadsHandoff measures the cooperative scheduler layer
// alone: two spawned threads issuing Stores, so each operation pays one
// scheduler step, plus a baton handoff whenever the draw switches
// threads. It reports ns per spawned operation.
func BenchmarkRunThreadsHandoff(b *testing.B) {
	const opsPerThread = 1000
	w := NewWorld(Config{CrashTarget: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset(int64(i))
		for id := memmodel.ThreadID(0); id < 2; id++ {
			w.Spawn(id, func(th *Thread) {
				for j := 0; j < opsPerThread; j++ {
					th.Store(addrX, memmodel.Value(j), "store")
				}
			})
		}
		w.RunThreads()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*opsPerThread), "ns/spawned-op")
}
