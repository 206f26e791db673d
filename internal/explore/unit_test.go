package explore

import (
	"reflect"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/pmem"
)

// driveMC is a minimal in-test supervisor: dispatch subtree units one
// at a time in canonical order, feeding each classification into the
// next unit's spec, and assemble the streams. budgeted mirrors the
// dispatch supervisor's per-unit budgets (Executions minus collected).
func driveMC(t *testing.T, p Program, opt Options, budgeted bool) *Result {
	t.Helper()
	asm := NewAssembler(p.Name(), opt)
	var keys []CacheEntry
	for v, more := 0, true; more; v++ {
		spec := UnitSpec{MC: &MCCheckpoint{Subtree: v, CacheKeys: append([]CacheEntry(nil), keys...)}}
		if budgeted {
			rem := opt.Executions - asm.Collected()
			if asm.Truncated() || rem <= 0 {
				asm.AddLost(spec)
				break
			}
			spec.Budget = rem
		}
		ur, err := RunUnit(p, opt, spec, UnitHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if !ur.Classified {
			t.Fatalf("fresh subtree %d did not classify", v)
		}
		if ur.Class.Keyed {
			keys = append(keys, ur.Class.Key)
		}
		more = ur.Class.InjectionFired
		asm.Add(spec, ur)
	}
	return asm.Finish("")
}

func driveRandom(t *testing.T, p Program, opt Options, chunk int) *Result {
	t.Helper()
	asm := NewAssembler(p.Name(), opt)
	for lo := 0; lo < opt.Executions; lo += chunk {
		hi := lo + chunk
		if hi > opt.Executions {
			hi = opt.Executions
		}
		spec := UnitSpec{Random: &RandomRange{Lo: lo, Hi: hi}}
		ur, err := RunUnit(p, opt, spec, UnitHooks{})
		if err != nil {
			t.Fatal(err)
		}
		asm.Add(spec, ur)
	}
	return asm.Finish("")
}

// sameResult asserts the fields the bit-identical-merge guarantee
// covers.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Executions != want.Executions || got.Aborted != want.Aborted ||
		got.Quarantined != want.Quarantined || got.Partial != want.Partial ||
		got.StopReason != want.StopReason {
		t.Fatalf("%s: counters diverge:\n got %s\nwant %s", label, got, want)
	}
	if !reflect.DeepEqual(got.ViolationKeys(), want.ViolationKeys()) {
		t.Fatalf("%s: violation keys diverge: %v vs %v", label, got.ViolationKeys(), want.ViolationKeys())
	}
	if got.ExecutionsToAllBugs != want.ExecutionsToAllBugs {
		t.Fatalf("%s: ExecutionsToAllBugs %d, want %d", label, got.ExecutionsToAllBugs, want.ExecutionsToAllBugs)
	}
	if got.FrontierRemaining != want.FrontierRemaining {
		t.Fatalf("%s: frontier %d, want %d", label, got.FrontierRemaining, want.FrontierRemaining)
	}
	if got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
		t.Fatalf("%s: cache %d/%d, want %d/%d", label, got.CacheHits, got.CacheMisses, want.CacheHits, want.CacheMisses)
	}
}

// TestUnitDriveMCEquivalence: unit-at-a-time execution through RunUnit
// plus ordered assembly reproduces the in-process engine bit for bit.
func TestUnitDriveMCEquivalence(t *testing.T) {
	for _, p := range []Program{figure2(), figure2Fixed()} {
		opt := Options{Mode: ModelCheck, Executions: 10000, Workers: 1}
		want := Run(p, opt)
		if want.Partial {
			t.Fatalf("baseline should complete: %s", want)
		}
		got := driveMC(t, p, opt, false)
		sameResult(t, p.Name(), got, want)
		if got.SnapshotRestores != want.SnapshotRestores || got.DPORPruned != want.DPORPruned {
			t.Fatalf("%s: reduction diagnostics diverge: snap %d/%d dpor %d/%d", p.Name(),
				got.SnapshotRestores, want.SnapshotRestores, got.DPORPruned, want.DPORPruned)
		}
	}
}

// TestUnitDriveMCBudget: dispatch-style per-unit budgets truncate at
// the cap exactly like the engine's allowance and in-order fold.
func TestUnitDriveMCBudget(t *testing.T) {
	full := Run(figure2(), Options{Mode: ModelCheck, Executions: 10000, Workers: 1})
	cap := full.Executions / 2
	opt := Options{Mode: ModelCheck, Executions: cap, Workers: 1}
	want := Run(figure2(), opt)
	if !want.Partial || want.StopReason != "exec-budget" {
		t.Fatalf("baseline should truncate: %s", want)
	}
	got := driveMC(t, figure2(), opt, true)
	sameResult(t, "budget", got, want)
	if got.Checkpoint != nil {
		t.Fatalf("budget truncation must not checkpoint (engine parity)")
	}
}

// TestUnitDriveRandomEquivalence: range units at several chunk sizes
// all reproduce the serial random engine.
func TestUnitDriveRandomEquivalence(t *testing.T) {
	opt := Options{Mode: Random, Executions: 60, Seed: 7, Workers: 1}
	want := Run(figure2(), opt)
	for _, chunk := range []int{1, 7, 60} {
		got := driveRandom(t, figure2(), opt, chunk)
		sameResult(t, "random", got, want)
	}
}

// TestUnitHooks: OnClassify fires once before the unit returns;
// OnExec counts monotonically.
func TestUnitHooks(t *testing.T) {
	classified := 0
	var counts []int
	spec := UnitSpec{MC: &MCCheckpoint{Subtree: 0}}
	ur, err := RunUnit(figure2(), Options{Mode: ModelCheck, Executions: 10000}, spec, UnitHooks{
		OnExec:     func(n int) { counts = append(counts, n) },
		OnClassify: func(UnitClassification) { classified++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if classified != 1 {
		t.Fatalf("OnClassify fired %d times, want 1", classified)
	}
	if len(counts) != len(ur.Execs) {
		t.Fatalf("OnExec fired %d times for %d execs", len(counts), len(ur.Execs))
	}
	for i, n := range counts {
		if n != i+1 {
			t.Fatalf("OnExec counts not monotone: %v", counts)
		}
	}
	if !ur.Done {
		t.Fatalf("unbudgeted unit should exhaust its subtree")
	}
}

// TestUnitSpecValidation: a spec must pick exactly one mode.
func TestUnitSpecValidation(t *testing.T) {
	if _, err := RunUnit(figure2(), Options{}, UnitSpec{}, UnitHooks{}); err == nil {
		t.Fatal("empty spec should be rejected")
	}
	both := UnitSpec{Random: &RandomRange{Hi: 1}, MC: &MCCheckpoint{}}
	if _, err := RunUnit(figure2(), Options{}, both, UnitHooks{}); err == nil {
		t.Fatal("double spec should be rejected")
	}
}

// TestUnitDiagnosesEachKeyOnce: within one work unit a violation key is
// diagnosed by exactly one execution, the first to reach it; later
// executions of the unit recognize it as already reported and skip it.
// The "run-mc" case is the campaign-wide form: Run folds each subtree
// unit as soon as it and every earlier one are done, so a key one
// subtree diagnosed is known to every later subtree.
func TestUnitDiagnosesEachKeyOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		spec *UnitSpec // nil: the whole campaign through Run
	}{
		{"random", Options{Mode: Random, Seed: 1}, &UnitSpec{Random: &RandomRange{Lo: 0, Hi: 200}}},
		{"mc", Options{Mode: ModelCheck}, &UnitSpec{MC: &MCCheckpoint{Subtree: 0}}},
		{"run-mc", Options{Mode: ModelCheck, Workers: 1}, nil},
	} {
		// The trailing read re-runs figure2's violating reads once per
		// candidate it can read, so model checking meets them again.
		p := withTailRead(figure2())
		t.Run(tc.name, func(t *testing.T) {
			reported := map[string]int{}
			tc.opt.AfterExecution = func(w *pmem.World) {
				for _, v := range w.Checker.Violations() {
					reported[v.Key()]++
				}
			}
			var keys []string
			if tc.spec == nil {
				keys = Run(p, tc.opt).ViolationKeys()
			} else {
				ur, err := RunUnit(p, tc.opt, *tc.spec, UnitHooks{})
				if err != nil {
					t.Fatal(err)
				}
				for _, ex := range ur.Execs {
					for _, v := range ex.Violations {
						keys = append(keys, v.Key())
					}
				}
			}
			if len(keys) == 0 {
				t.Fatal("no violation found")
			}
			if len(reported) != len(keys) {
				t.Fatalf("executions reported keys %v, stream holds %v", reported, keys)
			}
			for _, k := range keys {
				if reported[k] != 1 {
					t.Fatalf("key %s diagnosed in %d executions, want 1", k, reported[k])
				}
			}
		})
	}
}

// withTailRead appends to p's final phase a load of a variable its
// pre-crash phase stored twice without a flush, after a fence. The
// fence splits model checking into two subtrees (a crash before it and
// one past the end) that both reach p's own violations.
func withTailRead(p Program) Program {
	const addrZ = memmodel.Addr(0x4000)
	phases := p.Phases()
	pre, post := phases[0], phases[len(phases)-1]
	return &FuncProgram{
		ProgName: p.Name() + "+z",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				pre(w)
				w.Thread(0).SFence("sfence")
				w.Thread(0).Store(addrZ, 1, "z=1")
				w.Thread(0).Store(addrZ, 2, "z=2")
			},
			func(w *pmem.World) {
				post(w)
				w.Thread(0).Load(addrZ, "r3=z")
			},
		},
	}
}

// TestAssemblerCountsCacheStatsInPrefix: a subtree's classification
// counts toward CacheHits/CacheMisses only when the subtree starts
// inside the collected prefix. One past the Executions cap, or after a
// cut, may or may not have classified depending on scheduling, so it
// must not move the counts.
func TestAssemblerCountsCacheStatsInPrefix(t *testing.T) {
	miss := UnitClassification{Keyed: true, InjectionFired: true}
	hit := UnitClassification{Pruned: true, InjectionFired: true}
	unit := func(c UnitClassification, execs int) *UnitResult {
		return &UnitResult{Classified: true, Class: c, Execs: make([]UnitExec, execs), Done: true}
	}
	cases := []struct {
		name                 string
		units                []*UnitResult
		lostAt               int // index of a unit fed to AddLost, -1: none
		wantHits, wantMisses int
	}{
		{"under the cap", []*UnitResult{unit(miss, 1), unit(hit, 0), unit(miss, 1)}, -1, 1, 2},
		// The third unit overshoots the cap of 3 and cuts; the fourth
		// and fifth start past it.
		{"truncated", []*UnitResult{unit(miss, 2), unit(hit, 0), unit(miss, 2), unit(miss, 1), unit(hit, 0)}, -1, 1, 2},
		// The cap is reached exactly, without a cut.
		{"cap reached", []*UnitResult{unit(miss, 3), unit(hit, 0), unit(miss, 1)}, -1, 0, 1},
		{"lost unit", []*UnitResult{unit(miss, 1), nil, unit(hit, 0), unit(miss, 1)}, 1, 0, 1},
	}
	for _, c := range cases {
		asm := NewAssembler("p", Options{Mode: ModelCheck, Executions: 3})
		for v, ur := range c.units {
			spec := UnitSpec{MC: &MCCheckpoint{Subtree: v}}
			if v == c.lostAt {
				asm.AddLost(spec)
				continue
			}
			asm.Add(spec, ur)
		}
		res := asm.Finish("")
		if res.CacheHits != c.wantHits || res.CacheMisses != c.wantMisses {
			t.Errorf("%s: cache %d/%d, want %d/%d", c.name, res.CacheHits, res.CacheMisses, c.wantHits, c.wantMisses)
		}
	}
}
