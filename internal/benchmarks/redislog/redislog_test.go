package redislog

import (
	"testing"

	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestSetGet(t *testing.T) {
	r := New(bench.Fixed)
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1})
	th := w.Thread(0)
	r.Init(th, 16)
	for k := memmodel.Value(1); k <= 8; k++ {
		r.Set(th, k, k*101, 3)
	}
	r.Set(th, 5, 999, 1) // overwrite
	for k := memmodel.Value(1); k <= 8; k++ {
		want := k * 101
		if k == 5 {
			want = 999
		}
		v, ok := r.Get(th, k)
		if !ok || v != want {
			t.Fatalf("get(%d) = (%d, %v), want %d", k, v, ok, want)
		}
	}
	if _, ok := r.Get(th, 12); ok {
		t.Fatal("get(12) should miss")
	}
}

func TestBuggyReportsAOFBug(t *testing.T) {
	b := Benchmark()
	res := explore.Run(b.Build(bench.Buggy), explore.Options{
		Mode: explore.Random, Executions: b.Executions, Seed: 41,
	})
	_, missed := bench.MatchExpected(b.Expected, res.Violations)
	if len(missed) != 0 {
		t.Fatalf("missed: %+v\nfound: %v", missed, res.ViolationKeys())
	}
}

func TestFixedIsClean(t *testing.T) {
	b := Benchmark()
	res := explore.Run(b.Build(bench.Fixed), explore.Options{
		Mode: explore.Random, Executions: b.Executions, Seed: 41,
	})
	if len(res.Violations) != 0 {
		t.Fatalf("fixed variant reports: %v", res.ViolationKeys())
	}
	if res.Aborted != 0 {
		t.Fatalf("%d aborted executions", res.Aborted)
	}
}

// TestWindowedRunMatches: the same workload explored with a bounded
// window reports the same violations as the unbounded run.
func TestWindowedRunMatches(t *testing.T) {
	b := Benchmark()
	base := explore.Options{Mode: explore.Random, Executions: 50, Seed: 42}
	unb := explore.Run(b.Build(bench.Buggy), base)
	win := base
	win.Model.Window = 64
	bounded := explore.Run(b.Build(bench.Buggy), win)
	got, want := bounded.ViolationKeys(), unb.ViolationKeys()
	if len(got) != len(want) {
		t.Fatalf("windowed keys %v != unbounded %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("windowed keys %v != unbounded %v", got, want)
		}
	}
	if bounded.Retirements == 0 {
		t.Fatal("bounded run never retired")
	}
}

// TestWindowRetireCountersPinned: a fixed-seed windowed execution —
// init and 1500 requests, a crash at the 300th fence-like operation,
// recovery and 1500 more requests, under a 64-op window — retires
// the same on px86 and ptsosyn, with and without store buffers: one
// sweep every 64 scheduled operations. The pinned values were recorded
// with the full mark-and-sweep reference (trace.SetFullMarkCheck)
// attached to this scenario and reporting no difference, so they are
// what full mark-and-sweep retirement at that cadence pins, unlinks and
// releases; a change to any of them is a change to what retirement
// keeps or to when it runs.
func TestWindowRetireCountersPinned(t *testing.T) {
	want := map[bool]trace.RetireStats{
		false: {Retirements: 271, RetiredEvents: 19139, RetiredStores: 1092, ReleasedBytes: 2185448, MaxPinnedRoots: 8209},
		true:  {Retirements: 273, RetiredEvents: 19273, RetiredStores: 1122, ReleasedBytes: 2205256, MaxPinnedRoots: 8230},
	}
	for _, model := range []string{"px86", "ptsosyn"} {
		for _, delayed := range []bool{false, true} {
			w := pmem.NewWorld(pmem.Config{
				Model:              persist.Config{Name: model, Window: 64, DelayedCommit: delayed},
				Seed:               7,
				Chooser:            pmem.ChooseRandom,
				CrashTarget:        300,
				RandomDrainPercent: 20,
			})
			r := New(bench.Buggy)
			cfg := workload.Config{Seed: 7, Ops: 1500, Keys: 256, ZipfS: 1.2, ReadPct: 40, Threads: 2,
				Classes: []workload.SizeClass{{Words: 1, Weight: 3}, {Words: 8, Weight: 1}}}
			if !w.RunPhase(func(w *pmem.World) {
				r.Init(w.Thread(0), cfg.Keys)
				workload.Drive(w, cfg, r)
			}) {
				t.Fatalf("%s delayed=%v: the first phase did not crash", model, delayed)
			}
			w.Crash()
			w.SetCrashTarget(-1)
			cfg.Seed = 8
			w.RunPhase(func(w *pmem.World) {
				r.Recover(w.Thread(0))
				workload.Drive(w, cfg, r)
			})
			got := w.M.Trace().Retired()
			got.RetainedEvents, got.PinnedRoots = 0, 0
			if got != want[delayed] {
				t.Errorf("%s delayed=%v: %+v, want %+v", model, delayed, got, want[delayed])
			}
		}
	}
}
