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
// plus waves of spawned bodies, one of which may panic partway through.
// Each wave spawns threads 0..threads-1 and runs them to completion on
// the same World, as workload.Drive does with churn.
type schedCase struct {
	seed     int64
	threads  int
	waves    int // RunThreads calls (0: one)
	crash    int // world crash target (-1: none)
	opLimit  int // 0: the default budget
	drain    bool
	panicker int // body whose thread panics, counted across waves (-1: none)
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

func (c schedCase) runCoroutines() schedOutcome {
	w := c.world()
	var log []schedOp
	return c.outcome(w, &log, func() {
		for v := 0; v < max(c.waves, 1); v++ {
			for i := 0; i < c.threads; i++ {
				w.Spawn(memmodel.ThreadID(i), c.body(v*c.threads+i, &log))
			}
			w.RunThreads()
		}
	})
}

func (c schedCase) runReference() schedOutcome {
	w := c.world()
	var log []schedOp
	return c.outcome(w, &log, func() {
		for v := 0; v < max(c.waves, 1); v++ {
			var threads []*refThread
			for i := 0; i < c.threads; i++ {
				refSpawn(w, &threads, memmodel.ThreadID(i), c.body(v*c.threads+i, &log))
			}
			refRunThreads(w, threads)
		}
	})
}

// TestBatonSchedulerMatchesChannelReference pins the coroutine
// scheduler to the channel scheduler spawned threads first ran under:
// for every seed, thread count (up to 8), number of RunThreads waves on
// one World, and ending — running out, a crash target, the op budget,
// a panicking body — both produce the same operations in the same
// order, end with the same signal, and leave the random source at the
// same position.
func TestBatonSchedulerMatchesChannelReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for seed := int64(0); seed < 200; seed++ {
		for _, n := range []int{1, 2, 3, 4, 6, 8} {
			for _, waves := range []int{1, 3} {
				base := schedCase{seed: seed, threads: n, waves: waves, crash: -1, panicker: -1, drain: seed%2 == 1}
				crash, budget, panicky := base, base, base
				crash.crash = int(seed % int64(6*waves))
				budget.opLimit = 3 + int(seed%int64(15*waves))
				panicky.panicker, panicky.panicAt = int(seed)%(n*waves), int(seed/4)%4
				for _, c := range []schedCase{base, crash, budget, panicky} {
					got, want := c.runCoroutines(), c.runReference()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v:\ncoroutine %+v\nreference %+v", c, got, want)
					}
				}
			}
		}
	}
}

// TestRunThreadsCrashLeaksNoGoroutines ends phases early in every way
// RunThreads can: a crash at the first fence, a body that panics, and
// the op budget, with seeds where the schedule ends before some thread
// got its first grant. No thread's coroutine may outlive RunThreads:
// the goroutine count is back to base as soon as it returns.
func TestRunThreadsCrashLeaksNoGoroutines(t *testing.T) {
	type ending struct {
		name    string
		cfg     Config
		threads int
		body    func(th *Thread)
		want    string // the signal RunThreads ends with
	}
	endings := []ending{
		{"crash", Config{CrashTarget: 0}, 2, func(th *Thread) { th.SFence("sfence") }, "pmem.CrashSignal"},
		{"panic", Config{CrashTarget: -1}, 3, func(th *Thread) {
			th.Store(addrX, 1, "store")
			if th.ID == 1 {
				panic("body gives up")
			}
			th.Store(addrY, 1, "store")
		}, "string"},
		{"budget", Config{CrashTarget: -1, OpLimit: 2}, 4, func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Store(addrX, memmodel.Value(j), "store")
			}
		}, "pmem.AbortSignal"},
	}
	base := runtime.NumGoroutine()
	for _, e := range endings {
		neverStarted := 0
		for seed := int64(0); seed < 200; seed++ {
			e.cfg.Seed = seed
			w := NewWorld(e.cfg)
			started := make([]bool, e.threads)
			for id := memmodel.ThreadID(0); id < memmodel.ThreadID(e.threads); id++ {
				w.Spawn(id, func(th *Thread) {
					started[th.ID] = true
					e.body(th)
				})
			}
			var got any
			func() {
				defer func() { got = recover() }()
				w.RunThreads()
			}()
			if g := fmt.Sprintf("%T", got); g != e.want {
				t.Fatalf("%s, seed %d: RunThreads ended with %s, want %s", e.name, seed, g, e.want)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("%s, seed %d: %d goroutines outlive RunThreads", e.name, seed, n-base)
			}
			for _, s := range started {
				if !s {
					neverStarted++
				}
			}
		}
		if neverStarted == 0 {
			t.Errorf("%s: no seed ended the schedule before a thread's first grant", e.name)
		}
	}
}

// TestRunThreadsGoexitPropagates pins what runtime.Goexit inside a
// spawned body (t.FailNow, for one) does: it ends the goroutine that
// called RunThreads, which never returns, and no panic escapes. Before
// the caller unwinds, RunThreads stops every other thread: one that was
// suspended at a boundary unwinds there without issuing its pending
// operation, one that never started never runs, and no coroutine
// outlives the caller.
func TestRunThreadsGoexitPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	stoppedMidBody := 0
	for seed := int64(0); seed < 50; seed++ {
		w := NewWorld(Config{Seed: seed, CrashTarget: -1})
		var log []memmodel.ThreadID
		w.Spawn(0, func(th *Thread) {
			th.Store(addrX, 1, "store")
			log = append(log, th.ID)
			runtime.Goexit()
		})
		w.Spawn(1, func(th *Thread) {
			for j := 0; j < 5; j++ {
				th.Store(addrY, memmodel.Value(j), "store")
				log = append(log, th.ID)
			}
		})
		var returned, unwound bool
		var recovered any
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { unwound, recovered = true, recover() }()
			w.RunThreads()
			returned = true
		}()
		<-done
		if returned || !unwound || recovered != nil {
			t.Fatalf("seed %d: returned=%v unwound=%v recovered=%v; want the caller to exit without returning or panicking", seed, returned, unwound, recovered)
		}
		if len(log) == 0 || log[len(log)-1] != 0 || w.Ops() != len(log) {
			t.Fatalf("seed %d: log %v with %d world ops; want every issued op completed and none after the Goexit", seed, log, w.Ops())
		}
		if n := len(log) - 1; n > 0 && n < 5 {
			stoppedMidBody++
		}
	}
	if stoppedMidBody == 0 {
		t.Error("no seed stopped thread 1 between its operations")
	}
	// The callers' goroutines exit asynchronously after closing done.
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
// scheduler step, plus a coroutine handoff whenever the draw switches
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

// BenchmarkRunThreadsSpawn measures the fixed cost of one RunThreads
// call: a lone spawned thread issuing three Stores, which is what a
// spawning phase pays before any handoff.
func BenchmarkRunThreadsSpawn(b *testing.B) {
	w := NewWorld(Config{CrashTarget: -1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset(int64(i))
		w.Spawn(0, func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Store(addrX, memmodel.Value(j), "store")
			}
		})
		w.RunThreads()
	}
}
