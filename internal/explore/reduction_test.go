package explore_test

// Equivalence tests for the model-check reductions (prefix snapshots
// and the post-crash state cache):
//
//   - snapshots on vs off must be bit-identical — same violation keys,
//     same execution/abort/quarantine counts, and the same observable
//     heap in every execution (pinned by digesting every recovery-phase
//     read) — on every persistency-model backend;
//   - the state cache on vs off must report exactly the same violation
//     key set on every shipped litmus program, with the cache never
//     running more executions than the uncached search.
//
// Together with determinism_test.go (which exercises both settings)
// these are the safety net that lets the reductions run whenever the
// trace window is unbounded. The unreduced side of every comparison is
// built through the package's test seam (export_test.go).

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// testdataDir holds the shipped .pm litmus corpus.
const testdataDir = "../../testdata"

// assertSameReducedOutcome compares everything a reduction is not
// allowed to change.
func assertSameReducedOutcome(t *testing.T, label string, on, off *explore.Result) {
	t.Helper()
	if !reflect.DeepEqual(on.ViolationKeys(), off.ViolationKeys()) {
		t.Fatalf("%s: ViolationKeys differ\n  on:  %v\n  off: %v", label, on.ViolationKeys(), off.ViolationKeys())
	}
	if on.Executions != off.Executions {
		t.Fatalf("%s: Executions %d vs %d", label, on.Executions, off.Executions)
	}
	if on.ExecutionsToAllBugs != off.ExecutionsToAllBugs {
		t.Fatalf("%s: ExecutionsToAllBugs %d vs %d", label, on.ExecutionsToAllBugs, off.ExecutionsToAllBugs)
	}
	if on.Aborted != off.Aborted || on.Quarantined != off.Quarantined {
		t.Fatalf("%s: Aborted/Quarantined (%d/%d) vs (%d/%d)",
			label, on.Aborted, on.Quarantined, off.Aborted, off.Quarantined)
	}
}

// digestProgram is a two-phase program whose recovery phase digests
// every value it reads into the collector, so two runs can compare the
// exact heap state each execution observed. The phases touch several
// cache lines with deliberately missing flushes, giving the search real
// branching on every backend.
func digestProgram(digests *[]uint64, mu *sync.Mutex) explore.Program {
	words := []memmodel.Addr{0x2000, 0x2008, 0x2040, 0x3000, 0x3040}
	return &explore.FuncProgram{
		ProgName: "digest",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(words[0], 1, "x=1")
				th.Store(words[1], 2, "y=2") // same line as x, no flush
				th.Flush(words[0], "flush x")
				th.SFence("fence")
				th.Store(words[2], 3, "z=3") // own line, no flush
				th.Store(words[3], 4, "c=4")
				th.Flush(words[3], "flush c")
				th.Store(words[4], 5, "d=5")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				var h uint64 = 14695981039346656037
				for _, a := range words {
					v := th.Load(a, "recovery read")
					h = (h ^ uint64(v)) * 1099511628211
				}
				mu.Lock()
				*digests = append(*digests, h)
				mu.Unlock()
			},
		},
	}
}

// TestSnapshotEquivalenceAcrossModels: switching snapshots off must not
// change any observable part of a model-check campaign on any backend —
// and in particular every execution must read the same heap whether it
// was replayed from the program start or resumed from a restored crash
// snapshot.
func TestSnapshotEquivalenceAcrossModels(t *testing.T) {
	for _, model := range persist.Names() {
		model := model
		t.Run(model, func(t *testing.T) {
			run := func(disable bool) (*explore.Result, []uint64) {
				var digests []uint64
				var mu sync.Mutex
				opt := explore.Options{
					Mode: explore.ModelCheck, Executions: 5000, Workers: 1,
					Model: persist.Config{Name: model},
				}
				if disable {
					opt = explore.WithoutSnapshots(opt)
				}
				res := explore.Run(digestProgram(&digests, &mu), opt)
				return res, digests
			}
			on, onDigests := run(false)
			off, offDigests := run(true)
			assertSameReducedOutcome(t, model, on, off)
			// Workers:1 collects executions in canonical order, so the
			// digest streams must match element for element.
			if !reflect.DeepEqual(onDigests, offDigests) {
				t.Fatalf("%s: heap digests diverge (%d vs %d executions)\n  on:  %v\n  off: %v",
					model, len(onDigests), len(offDigests), onDigests, offDigests)
			}
			if off.SnapshotRestores != 0 {
				t.Fatalf("%s: disabled run reports %d snapshot restores", model, off.SnapshotRestores)
			}
		})
	}
}

// TestSnapshotEquivalenceOnBenchmarks runs the same A/B on every
// benchmark port and workload server at both worker counts the
// determinism suite pins. Every port is reentrant, so every one must
// actually resume from snapshots.
func TestSnapshotEquivalenceOnBenchmarks(t *testing.T) {
	execs := scaled(400)
	for _, b := range registryAndServers() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, workers := range []int{1, 8} {
				opt := explore.Options{Mode: explore.ModelCheck, Executions: execs, Workers: workers}
				on := explore.Run(b.Build(bench.Buggy), opt)
				off := explore.Run(b.Build(bench.Buggy), explore.WithoutSnapshots(opt))
				assertSameReducedOutcome(t, b.Name, on, off)
				if on.SnapshotRestores == 0 {
					t.Fatalf("%s at %d workers: no snapshot restores", b.Name, workers)
				}
			}
		})
	}
}

// relayProgram is a three-phase program whose bug is found in the middle
// phase: phase 1 reads x and y across the first crash (x=1 and y=1 sit
// on separate lines with no flush), so reading y=1 but x=0 is a
// violation, then relays what it read into z for phase 2 to read across
// the second crash. The crash snapshot after phase 1 therefore already
// carries a violation, and every execution restored from it starts with
// that prefix report.
func relayProgram() explore.Program {
	const x, y, z, w = memmodel.Addr(0x2000), memmodel.Addr(0x3000), memmodel.Addr(0x4000), memmodel.Addr(0x5000)
	return &explore.FuncProgram{
		ProgName: "relay",
		PhaseFns: []func(*pmem.World){
			func(wd *pmem.World) {
				th := wd.Thread(0)
				th.Store(x, 1, "x=1")
				th.Store(y, 1, "y=1")
			},
			func(wd *pmem.World) {
				th := wd.Thread(0)
				r1 := th.Load(x, "p1 r1=x")
				r2 := th.Load(y, "p1 r2=y")
				th.Store(z, r1+r2, "z=r1+r2")
				th.Flush(z, "flush z")
				th.SFence("fence z")
				th.Store(w, 1, "w=1")
				th.Store(z, 9, "z=9")
			},
			func(wd *pmem.World) {
				th := wd.Thread(0)
				th.Load(w, "p2 r3=w")
				th.Load(z, "p2 r4=z")
			},
		},
	}
}

// TestSnapshotRestoreNonFinalPhaseBug: a bug found before a crash
// snapshot is part of every restored execution's checker state, yet the
// unit reports it once. The rendered reports must be identical with
// snapshots on and off, at one worker and at two.
func TestSnapshotRestoreNonFinalPhaseBug(t *testing.T) {
	forceProcs(t, 2)
	type config struct {
		snaps   bool
		workers int
	}
	run := func(c config) *explore.Result {
		opt := explore.Options{Mode: explore.ModelCheck, Executions: 10000, Workers: c.workers}
		if !c.snaps {
			opt = explore.WithoutSnapshots(opt)
		}
		return explore.Run(relayProgram(), opt)
	}
	ref := run(config{workers: 1})
	if ref.Partial || len(ref.Violations) < 2 {
		t.Fatalf("reference run should complete with bugs in both post-crash phases: %s", ref)
	}
	midPhase := false
	for _, v := range ref.Violations {
		midPhase = midPhase || strings.Contains(v.String(), `"p1 `)
	}
	if !midPhase {
		t.Fatalf("no violation found in the middle phase: %v", ref.ViolationKeys())
	}
	for _, c := range []config{{true, 1}, {false, 2}, {true, 2}} {
		got := run(c)
		assertSameOutcome(t, fmt.Sprintf("%+v", c), ref, got)
		if c.snaps && got.SnapshotRestores == 0 {
			t.Fatalf("%+v: no execution restored a crash snapshot", c)
		}
	}
}

// TestStateCacheSoundOnLitmusPrograms: on every shipped .pm litmus
// program, the cached search must report exactly the violation key set
// the uncached search reports, while never running more executions.
// The cache must fire where crash targets share an image: on
// counter.pm and figure2_fixed.pm.
func TestStateCacheSoundOnLitmusPrograms(t *testing.T) {
	entries, err := os.ReadDir(testdataDir)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[string]bool{"counter.pm": true, "figure2_fixed.pm": true}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pm") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(testdataDir, name))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			opt := explore.Options{Mode: explore.ModelCheck, Executions: 20000}
			on := explore.Run(interp.New(name, prog), opt)
			off := explore.Run(interp.New(name, prog), explore.WithoutStateCache(opt))
			if !reflect.DeepEqual(on.ViolationKeys(), off.ViolationKeys()) {
				t.Fatalf("the state cache changed the violation set\n  on:  %v\n  off: %v",
					on.ViolationKeys(), off.ViolationKeys())
			}
			if on.Executions > off.Executions {
				t.Fatalf("the state cache ran more executions than the uncached search: %d > %d",
					on.Executions, off.Executions)
			}
			if hits[name] && on.CacheHits == 0 {
				t.Fatalf("the state cache never hit (%d misses)", on.CacheMisses)
			}
			if off.CacheHits+off.CacheMisses != 0 {
				t.Fatalf("disabled run reports %d/%d cache lookups", off.CacheHits, off.CacheMisses)
			}
		})
	}
}
