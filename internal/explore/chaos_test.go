package explore

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/pmem"
)

// injectEvery returns a chaos plan that panics at op `atOp` on every
// schedule ordinal where ordinal%n == r.
func injectEvery(n, r, atOp int) func(int) Fault {
	return func(ordinal int) Fault {
		if ordinal%n == r {
			return Fault{PanicAtOp: atOp}
		}
		return Fault{}
	}
}

func TestPanicContainmentRandom(t *testing.T) {
	const execs = 60
	base := Options{Mode: Random, Executions: execs, Seed: 7, Workers: 1}
	for _, workers := range []int{1, 8} {
		opt := base
		opt.Workers = workers
		// Every 5th execution panics at its first operation: 12 of 60.
		opt.InjectFault = injectEvery(5, 0, 1)
		res := Run(figure2(), opt)
		if res.Partial {
			t.Fatalf("workers=%d: containment must not stop the run: %s", workers, res)
		}
		if res.Executions != execs {
			t.Fatalf("workers=%d: got %d executions, want %d", workers, res.Executions, execs)
		}
		if res.Quarantined != execs/5 {
			t.Fatalf("workers=%d: got %d quarantined, want %d", workers, res.Quarantined, execs/5)
		}
		if len(res.ExecErrors) != res.Quarantined {
			t.Fatalf("workers=%d: %d ExecErrors for %d quarantined", workers, len(res.ExecErrors), res.Quarantined)
		}
		for _, ee := range res.ExecErrors {
			if ee.Kind != "injected-fault" {
				t.Fatalf("workers=%d: kind %q, want injected-fault: %v", workers, ee.Kind, ee)
			}
			if ee.Exec%5 != 0 {
				t.Fatalf("workers=%d: quarantined execution %d was not injected", workers, ee.Exec)
			}
			if ee.Seed == 0 || ee.Stack == "" {
				t.Fatalf("workers=%d: ExecError missing repro info: %+v", workers, ee)
			}
		}
		if len(res.Violations) == 0 {
			t.Fatalf("workers=%d: surviving executions should still find the figure2 bug", workers)
		}
	}
}

// TestPanicContainmentRandomWorkerInvariance asserts the chaos outcome
// itself is independent of the worker count.
func TestPanicContainmentRandomWorkerInvariance(t *testing.T) {
	run := func(workers int) *Result {
		return Run(figure2(), Options{
			Mode: Random, Executions: 80, Seed: 11, Workers: workers,
			InjectFault: injectEvery(7, 3, 2),
		})
	}
	a, b := run(1), run(8)
	if a.Quarantined != b.Quarantined || a.Executions != b.Executions || a.Aborted != b.Aborted {
		t.Fatalf("worker counts diverge: %s vs %s", a, b)
	}
	if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
		t.Fatalf("violation keys diverge: %v vs %v", a.ViolationKeys(), b.ViolationKeys())
	}
}

// TestRandomPilotPanicContainment runs a program that panics in its
// crashable phase. The pilot must not let the panic escape Run: it keeps
// the counts it has, and the executions reach the panic and quarantine
// it, as model checking does.
func TestRandomPilotPanicContainment(t *testing.T) {
	prog := &FuncProgram{ProgName: "pilot-panic", PhaseFns: []func(*pmem.World){
		func(w *pmem.World) {
			w.Thread(0).Store(addrX, 1, "x=1")
			panic("phase 0 gives up")
		},
		func(w *pmem.World) { w.Thread(0).Load(addrX, "r=x") },
	}}
	for _, workers := range []int{1, 2} {
		res := Run(prog, Options{Mode: Random, Executions: 10, Seed: 5, Workers: workers})
		if res.Executions != 10 || res.Quarantined != 10 {
			t.Fatalf("workers=%d: %d executions, %d quarantined; want 10 and 10: %s", workers, res.Executions, res.Quarantined, res)
		}
	}
}

func TestPanicContainmentModelCheck(t *testing.T) {
	run := func(workers int) *Result {
		return Run(figure2(), Options{
			Mode: ModelCheck, Executions: 10000, Workers: workers,
			// Skip each subtree's classifying execution (ordinal 0) so the
			// spawn chain survives; panic at op 3, which lands post-crash
			// for small crash targets and pre-crash for large ones —
			// exercising both containment paths.
			InjectFault: injectEvery(4, 2, 3),
		})
	}
	a, b := run(1), run(8)
	for _, res := range []*Result{a, b} {
		if res.Partial {
			t.Fatalf("containment must not stop the run: %s", res)
		}
		if res.Quarantined == 0 {
			t.Fatalf("expected quarantined executions: %s", res)
		}
		for _, ee := range res.ExecErrors {
			if ee.Kind != "injected-fault" {
				t.Fatalf("kind %q, want injected-fault: %v", ee.Kind, ee)
			}
			if len(ee.Prefix) == 0 {
				t.Fatalf("model-check ExecError should carry its decision prefix: %+v", ee)
			}
		}
		if len(res.Violations) == 0 {
			t.Fatalf("surviving executions should still find the figure2 bug: %s", res)
		}
	}
	if a.Quarantined != b.Quarantined || a.Executions != b.Executions || a.Aborted != b.Aborted {
		t.Fatalf("worker counts diverge: %s vs %s", a, b)
	}
	if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
		t.Fatalf("violation keys diverge: %v vs %v", a.ViolationKeys(), b.ViolationKeys())
	}
}

// TestPanicContainmentStealModelCheck runs the containment harness over
// a steal-heavy schedule. Fault injection normally suppresses demand
// donations (a hungry peer would make the unit tree timing-dependent),
// but ForceSteals donates deterministically by trail shape alone, so
// quarantines inside stolen units must classify identically at any
// worker count. Injection ordinals are unit-local, so the stolen
// schedule is compared against itself across worker counts, not
// against the never-stealing one.
func TestPanicContainmentStealModelCheck(t *testing.T) {
	run := func(workers int) *Result {
		return Run(figure2(), Options{
			Mode: ModelCheck, Executions: 10000, Workers: workers,
			ForceSteals: true,
			InjectFault: injectEvery(4, 2, 3),
		})
	}
	a := run(1)
	if a.Partial {
		t.Fatalf("containment must not stop the run: %s", a)
	}
	if a.Quarantined == 0 {
		t.Fatalf("expected quarantined executions: %s", a)
	}
	if a.Steals == 0 {
		t.Fatalf("forced donations never fired under injection: %s", a)
	}
	for _, ee := range a.ExecErrors {
		if ee.Kind != "injected-fault" {
			t.Fatalf("kind %q, want injected-fault: %v", ee.Kind, ee)
		}
		if len(ee.Prefix) == 0 {
			t.Fatalf("model-check ExecError should carry its decision prefix: %+v", ee)
		}
	}
	for _, workers := range []int{4, 16} {
		b := run(workers)
		if a.Quarantined != b.Quarantined || a.Executions != b.Executions ||
			a.Aborted != b.Aborted || a.Steals != b.Steals {
			t.Fatalf("workers=%d diverges: %s vs %s", workers, b, a)
		}
		if !reflect.DeepEqual(a.ViolationKeys(), b.ViolationKeys()) {
			t.Fatalf("workers=%d violation keys diverge: %v vs %v",
				workers, b.ViolationKeys(), a.ViolationKeys())
		}
	}
}

func TestStepTimeout(t *testing.T) {
	res := Run(figure2(), Options{
		Mode: Random, Executions: 3, Seed: 1, Workers: 1,
		StepTimeout: 25 * time.Millisecond,
		InjectFault: func(ordinal int) Fault {
			if ordinal == 0 {
				return Fault{DelayAtOp: 1, Delay: 150 * time.Millisecond}
			}
			return Fault{}
		},
	})
	if res.Partial {
		t.Fatalf("a step timeout degrades one execution, not the run: %s", res)
	}
	if res.Aborted < 1 {
		t.Fatalf("the delayed execution should have aborted on its step timeout: %s", res)
	}
	if res.Quarantined != 0 {
		t.Fatalf("timeouts are aborts, not quarantines: %s", res)
	}
}

func TestDeadlinePartial(t *testing.T) {
	for _, mode := range []Mode{Random, ModelCheck} {
		res := Run(figure2(), Options{Mode: mode, Executions: 500, Workers: 4, Deadline: time.Nanosecond})
		if !res.Partial || res.StopReason != "deadline" {
			t.Fatalf("%s: want partial deadline stop, got %s", mode, res)
		}
		if res.Executions != 0 {
			t.Fatalf("%s: nothing should have run under a 1ns deadline: %s", mode, res)
		}
		if res.Checkpoint == nil {
			t.Fatalf("%s: a deadline stop must yield a checkpoint", mode)
		}
		if res.FrontierRemaining == 0 {
			t.Fatalf("%s: unexplored frontier should be reported: %s", mode, res)
		}
		if !strings.Contains(res.String(), "PARTIAL") {
			t.Fatalf("%s: summary should flag partiality: %s", mode, res)
		}
	}
}

func TestContextCancelPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(figure2(), Options{Mode: Random, Executions: 100, Workers: 4, Context: ctx})
	if !res.Partial || res.StopReason != "canceled" {
		t.Fatalf("want partial canceled stop, got %s", res)
	}
	if res.Checkpoint == nil || res.Checkpoint.Collected != 0 {
		t.Fatalf("pre-canceled run should checkpoint at zero: %+v", res.Checkpoint)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	res := Run(figure2(), Options{Mode: ModelCheck, Executions: 500, Workers: 2, Deadline: time.Nanosecond})
	ck := res.Checkpoint
	if ck == nil {
		t.Fatal("no checkpoint to round-trip")
	}
	path := filepath.Join(t.TempDir(), "psan.ckpt")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compare serialized forms: omitempty legitimately turns empty
	// slices into nil on the way back.
	want, _ := json.Marshal(ck)
	have, _ := json.Marshal(got)
	if string(want) != string(have) {
		t.Fatalf("round-trip mismatch:\nsaved  %s\nloaded %s", want, have)
	}
	if err := got.Validate("figure2", Options{Mode: ModelCheck}); err != nil {
		t.Fatalf("matching checkpoint rejected: %v", err)
	}
	if err := got.Validate("other", Options{Mode: ModelCheck}); err == nil {
		t.Fatal("program mismatch accepted")
	}
	if err := got.Validate("figure2", Options{Mode: Random}); err == nil {
		t.Fatal("mode mismatch accepted")
	}
}

// runToCompletion chains checkpoint resumes until the run completes,
// returning the final cumulative result and the merged violation keys.
func runToCompletion(t *testing.T, p Program, opt Options) (*Result, []string) {
	t.Helper()
	merged := make(map[string]bool)
	var res *Result
	for leg := 0; ; leg++ {
		if leg > 50 {
			t.Fatal("resume chain did not converge in 50 legs")
		}
		res = Run(p, opt)
		for _, k := range res.ViolationKeys() {
			merged[k] = true
		}
		if !res.Partial {
			break
		}
		if res.Checkpoint == nil {
			t.Fatalf("partial leg %d without a checkpoint: %s", leg, res)
		}
		if err := res.Checkpoint.Validate(p.Name(), opt); err != nil {
			t.Fatalf("leg %d checkpoint invalid: %v", leg, err)
		}
		opt.Resume = res.Checkpoint
		// Double the deadline each leg so the chain always progresses.
		opt.Deadline *= 2
	}
	return res, keysOf(merged)
}

// TestCancelResumeRandom interrupts a random campaign under tiny
// deadlines and checks the chained resumes converge to the
// uninterrupted run's exact outcome.
func TestCancelResumeRandom(t *testing.T) {
	full := Run(figure2(), Options{Mode: Random, Executions: 120, Seed: 3, Workers: 4})
	res, merged := runToCompletion(t, figure2(), Options{
		Mode: Random, Executions: 120, Seed: 3, Workers: 4,
		Deadline: 500 * time.Microsecond,
	})
	if res.Executions != full.Executions || res.Aborted != full.Aborted {
		t.Fatalf("cumulative counts diverge: %s vs %s", res, full)
	}
	if !reflect.DeepEqual(merged, full.ViolationKeys()) {
		t.Fatalf("merged keys %v != uninterrupted %v", merged, full.ViolationKeys())
	}
}

// TestCancelResumeModelCheck does the same for the frontier-split DFS,
// whose checkpoint must also replay the state cache.
func TestCancelResumeModelCheck(t *testing.T) {
	full := Run(figure7(), Options{Mode: ModelCheck, Executions: 10000, Workers: 4})
	res, merged := runToCompletion(t, figure7(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 4,
		Deadline: 500 * time.Microsecond,
	})
	if res.Executions != full.Executions || res.Aborted != full.Aborted {
		t.Fatalf("cumulative counts diverge: %s vs %s", res, full)
	}
	if res.CacheHits != full.CacheHits || res.CacheMisses != full.CacheMisses {
		t.Fatalf("cumulative cache stats diverge: %d/%d vs %d/%d",
			res.CacheHits, res.CacheMisses, full.CacheHits, full.CacheMisses)
	}
	if !reflect.DeepEqual(merged, full.ViolationKeys()) {
		t.Fatalf("merged keys %v != uninterrupted %v", merged, full.ViolationKeys())
	}
}
