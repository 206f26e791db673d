package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/pmem"
)

// driveMC is a minimal in-test supervisor: it claims subtree units from
// a scheduler one at a time, runs each through RunUnit and finishes it,
// the classification riding on the result. budgeted ships the
// scheduler's per-unit budgets, as the dispatch supervisor does;
// without it every unit runs its whole subtree and the fold truncates.
func driveMC(t *testing.T, p Program, opt Options, budgeted bool) *Result {
	t.Helper()
	s := NewScheduler(p.Name(), opt, 0)
	for u := s.Claim(); u != nil; u = s.Claim() {
		spec := u.Spec
		if !budgeted {
			spec.Budget = 0
		}
		ur, err := RunUnit(p, opt, spec, UnitHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if !ur.Classified {
			t.Fatalf("fresh subtree %d did not classify", spec.MC.Subtree)
		}
		s.Finish(u, ur)
	}
	return s.Close("")
}

// driveRandom drives a random campaign's chunk-sized range units
// through RunUnit one at a time.
func driveRandom(t *testing.T, p Program, opt Options, chunk int) *Result {
	t.Helper()
	s := NewScheduler(p.Name(), opt, chunk)
	for u := s.Claim(); u != nil; u = s.Claim() {
		ur, err := RunUnit(p, opt, u.Spec, UnitHooks{})
		if err != nil {
			t.Fatal(err)
		}
		s.Finish(u, ur)
	}
	return s.Close("")
}

// interleave drives a scheduler of p's campaign single-handed, one
// seeded random move per step: claim a unit (running RunUnit on its
// spec at once), or take a held unit and report its classification
// early (sometimes twice, as a redelivery does), release it (its worker
// died) or finish it. At step stopAt (if >= 0) it stops the scheduler;
// from then on a held unit is either finished or lost with its worker.
func interleave(t *testing.T, p Program, opt Options, unitExecs int, rng *rand.Rand, stopAt int) *Result {
	t.Helper()
	s := NewScheduler(p.Name(), opt, unitExecs)
	type held struct {
		u  *Unit
		ur *UnitResult
	}
	var hs []held
	releases, stopped := 0, false
	for step := 0; ; step++ {
		if step == stopAt {
			s.Stop()
			stopped = true
		}
		if len(hs) == 0 || rng.Intn(3) == 0 {
			s.mu.Lock()
			u, over := s.claimLocked()
			s.mu.Unlock()
			if u != nil {
				ur, err := RunUnit(p, opt, u.Spec, UnitHooks{})
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, held{u, ur})
				continue
			}
			if len(hs) == 0 {
				if !over {
					t.Fatal("nothing claimable and nothing claimed, yet the chain is not over")
				}
				break
			}
		}
		i := rng.Intn(len(hs))
		h := hs[i]
		switch move := rng.Intn(4); {
		case move == 0 && !stopped:
			if h.ur.Classified {
				s.Classify(h.u, h.ur.Class)
				if rng.Intn(2) == 0 {
					s.Classify(h.u, h.ur.Class)
				}
			}
			continue
		case move == 1 && !stopped && releases < 8:
			releases++
			s.Release(h.u)
		case move == 1 && stopped:
			// Lost with its worker: Close folds it as the cut.
		default:
			s.Finish(h.u, h.ur)
		}
		hs = append(hs[:i], hs[i+1:]...)
	}
	if stopped {
		return s.Close("halted")
	}
	return s.Close("")
}

// fencedStores stores four variables twice each between fences, only
// some flushed, and reads them all after the crash: model checking
// splits it into seven subtrees, one a state-cache hit, with eight
// violations among their 28 executions.
func fencedStores() Program {
	vars := []memmodel.Addr{0x1000, 0x2000, 0x3000, 0x4000}
	return &FuncProgram{
		ProgName: "fenced-stores",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				for i, a := range vars {
					th.Store(a, 1, fmt.Sprintf("v%d=1", i))
					th.Store(a, 2, fmt.Sprintf("v%d=2", i))
					if i%2 == 0 {
						th.Flush(a, fmt.Sprintf("flush v%d", i))
					}
					th.SFence(fmt.Sprintf("fence %d", i))
				}
			},
			func(w *pmem.World) {
				for i, a := range vars {
					w.Thread(0).Load(a, fmt.Sprintf("r%d=v%d", i, i))
				}
			},
		},
	}
}

// TestSchedulerInterleavings: however claims, out-of-order finishes,
// early and duplicate classifications and releases are interleaved, the
// folded Result equals the Workers=1 Run in both modes, with and without
// a binding cap (FrontierRemaining included). A stopped drive
// checkpoints at its cut: the resume, driven the same way, equals the
// Workers=1 resumed Run, and the two legs' violation keys together are
// the uninterrupted run's.
func TestSchedulerInterleavings(t *testing.T) {
	cases := []struct {
		name      string
		p         func() Program
		opt       Options
		unitExecs int
	}{
		{"random", fencedStores, Options{Mode: Random, Executions: 60, Seed: 7, Workers: 2}, 7},
		{"mc", fencedStores, Options{Mode: ModelCheck, Executions: 10000, Workers: 2}, 0},
		{"mc-capped", fencedStores, Options{Mode: ModelCheck, Executions: 15, Workers: 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.opt
			serial.Workers = 1
			want := Run(tc.p(), serial)
			resumed := 0
			for seed := int64(0); seed < 24; seed++ {
				rng := rand.New(rand.NewSource(seed))
				stopAt := -1
				if seed%2 == 1 {
					stopAt = rng.Intn(16)
				}
				got := interleave(t, tc.p(), tc.opt, tc.unitExecs, rng, stopAt)
				if stopAt < 0 {
					sameResult(t, tc.name, got, want)
					continue
				}
				if got.Checkpoint == nil {
					continue // the stop landed after the cap or the last unit
				}
				resumed++
				opt := tc.opt
				opt.Resume = got.Checkpoint
				serial.Resume = got.Checkpoint
				rgot := interleave(t, tc.p(), opt, tc.unitExecs, rng, -1)
				sameResult(t, tc.name+"/resumed", rgot, Run(tc.p(), serial))
				union := map[string]bool{}
				for _, k := range append(got.ViolationKeys(), rgot.ViolationKeys()...) {
					union[k] = true
				}
				for _, k := range want.ViolationKeys() {
					if !union[k] {
						t.Fatalf("seed %d: violation %s missing from the two legs", seed, k)
					}
				}
			}
			if resumed == 0 {
				t.Fatal("no stop landed before the cut; the resume leg went untested")
			}
		})
	}
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
		if got.SnapshotRestores != want.SnapshotRestores {
			t.Fatalf("%s: snapshot restores diverge: %d/%d", p.Name(), got.SnapshotRestores, want.SnapshotRestores)
		}
	}
}

// TestUnitDriveMCBudget: per-unit budgets fixed at claim, as the
// dispatch supervisor ships them, truncate at the cap exactly like the
// live budget of Run's units and the in-order fold.
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
		lostAt               int // index of a unit fed to addLost, -1: none
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
		asm := newAssembler("p", &Options{Mode: ModelCheck, Executions: 3})
		for v, ur := range c.units {
			if v == c.lostAt {
				asm.addLost(&MCCheckpoint{Subtree: v})
				continue
			}
			asm.add(ur)
		}
		res := asm.finish("")
		if res.CacheHits != c.wantHits || res.CacheMisses != c.wantMisses {
			t.Errorf("%s: cache %d/%d, want %d/%d", c.name, res.CacheHits, res.CacheMisses, c.wantHits, c.wantMisses)
		}
	}
}
