package core_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/memmodel"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// TestFixesMatchPerThreadReference: the one-pass fix synthesis produces
// exactly the fixes of the straightforward per-thread algorithm below —
// list each thread's events of the missing-flush store's sub-execution,
// then scan each list for its window — on every violation the model
// checker and random search diagnose across the benchmark registry, the
// workload servers, and the example programs (whose Figure 7 shape gives
// windows in threads other than the missing-flush store's).
func TestFixesMatchPerThreadReference(t *testing.T) {
	var progs []explore.Program
	for _, b := range append(benchmarks.All(), benchmarks.Servers()...) {
		progs = append(progs, b.Build(bench.Buggy))
	}
	files, _ := filepath.Glob("../../testdata/*.pm")
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs = append(progs, interp.New(f, prog))
	}
	checked, alternates := 0, 0
	for _, prog := range progs {
		for _, mode := range []explore.Mode{explore.ModelCheck, explore.Random} {
			res := explore.Run(prog, explore.Options{
				Mode: mode, Executions: 150, Seed: 7,
				AfterExecution: func(w *pmem.World) {
					for _, v := range w.Checker.Violations() {
						want := referenceFixes(w.M.Trace(), v)
						if !reflect.DeepEqual(v.Fixes, want) {
							t.Fatalf("%s: %s\n  fixes %+v\n  reference %+v", prog.Name(), v, v.Fixes, want)
						}
						checked++
						for _, f := range v.Fixes {
							if f.Kind == core.FixInsertFlush && !f.Primary {
								alternates++
							}
						}
					}
				},
			})
			if res.Quarantined > 0 {
				t.Fatalf("%s: %d executions quarantined: %v", prog.Name(), res.Quarantined, res.ExecErrors[0])
			}
		}
	}
	if checked == 0 || alternates == 0 {
		t.Fatalf("checked %d violations, %d alternate windows: the reference comparison is vacuous", checked, alternates)
	}
}

// referenceFixes is the per-thread formulation of core's fix synthesis.
func referenceFixes(tr *trace.Trace, v *core.Violation) []core.Fix {
	mf, p := v.MissingFlush, v.Persisted
	if mf == nil || p == nil || mf.ID == p.ID || mf.Initial || p.Initial {
		return nil
	}
	evs := tr.SubEvents(mf.SubExec)
	threads := []memmodel.ThreadID{mf.Thread}
	seen := map[memmodel.ThreadID]bool{mf.Thread: true}
	for _, ev := range evs {
		if ev.Thread != memmodel.NoThread && !seen[ev.Thread] {
			seen[ev.Thread] = true
			threads = append(threads, ev.Thread)
		}
	}
	var fixes []core.Fix
	for _, tau := range threads {
		var own []*trace.Event
		for _, ev := range evs {
			if ev.Thread == tau {
				own = append(own, ev)
			}
		}
		if fix, ok := referenceWindow(tr, own, tau, mf, p); ok {
			fix.Primary = tau == mf.Thread
			fixes = append(fixes, fix)
		}
	}
	if !memmodel.SameLine(mf.Addr, p.Addr) {
		fixes = append(fixes, core.Fix{Kind: core.FixColocate, AfterLoc: mf.Loc, BeforeLoc: p.Loc})
	}
	return fixes
}

// referenceWindow scans thread tau's events for its flush window.
func referenceWindow(tr *trace.Trace, evs []*trace.Event, tau memmodel.ThreadID, mf, p *core.StoreRef) (core.Fix, bool) {
	if tau == mf.Thread && tau == p.Thread {
		return core.Fix{Kind: core.FixInsertFlush, Thread: tau, AfterLoc: mf.Loc, BeforeLoc: p.Loc}, true
	}
	start := -1
	for i, ev := range evs {
		if ev.Store != nil && ev.Store.ID == mf.ID {
			continue
		}
		if mf.CV.Leq(ev.CV) {
			start = i
			break
		}
	}
	if start < 0 {
		return core.Fix{}, false
	}
	if tau == p.Thread {
		return core.Fix{Kind: core.FixInsertFlush, Thread: tau, AfterLoc: tr.LocString(evs[start].Loc), BeforeLoc: p.Loc}, true
	}
	end := -1
	for i := start; i < len(evs); i++ {
		if evs[i].CV.Leq(p.CV) {
			end = i
		}
	}
	if end < 0 {
		return core.Fix{}, false
	}
	before := ""
	if end+1 < len(evs) {
		before = tr.LocString(evs[end+1].Loc)
	}
	return core.Fix{Kind: core.FixInsertFlush, Thread: tau, AfterLoc: tr.LocString(evs[start].Loc), BeforeLoc: before}, true
}
