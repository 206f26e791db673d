package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// TestMain doubles as the worker binary: the supervisor tests re-exec
// this test binary with PSAN_WORKER_PROCESS=1, which routes straight
// into WorkerMain with a name-based resolver over the test programs —
// the spawned process IS a real psan-worker, just with in-memory
// programs instead of source files.
func TestMain(m *testing.M) {
	if os.Getenv("PSAN_WORKER_PROCESS") == "1" {
		os.Exit(WorkerMain(os.Stdin, os.Stdout, os.Stderr, resolveTestProgram))
	}
	os.Exit(m.Run())
}

func resolveTestProgram(name, path string) (explore.Program, error) {
	mk, ok := testPrograms[name]
	if !ok {
		return nil, fmt.Errorf("unknown test program %q", name)
	}
	return mk(), nil
}

const (
	addrX = memmodel.Addr(0x2000)
	addrY = memmodel.Addr(0x3000)
	addrZ = memmodel.Addr(0x4000)
)

var testPrograms = map[string]func() explore.Program{
	"figure2":  figure2,
	"figure7":  figure7,
	"panicker": panicker,
	"fenced":   fenced,
}

// figure2 is the paper's Figure 2: four stores with no flushes, then
// post-crash reads. Not robust — violations at several crash points.
func figure2() explore.Program {
	return &explore.FuncProgram{
		ProgName: "figure2",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Store(addrY, 1, "y=1")
				th.Store(addrX, 2, "x=2")
				th.Store(addrY, 2, "y=2")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r1=x")
				th.Load(addrY, "r2=y")
			},
		},
	}
}

// figure7 is the inter-thread example: more interleavings, more crash
// points — a bigger model-check frontier than figure2.
func figure7() explore.Program {
	return &explore.FuncProgram{
		ProgName: "figure7",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				w.Spawn(0, func(th *pmem.Thread) {
					th.Store(addrX, 1, "x=1")
					th.Flush(addrX, "flush x")
				})
				w.Spawn(1, func(th *pmem.Thread) {
					r1 := th.Load(addrX, "r1=x")
					th.Store(addrY, r1, "y=r1")
					th.Flush(addrY, "flush y")
				})
				w.RunThreads()
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Load(addrX, "r2=x")
				th.Load(addrY, "r3=y")
			},
		},
	}
}

// fenced is figure2 followed by a fence and two stores to z, read back
// after the crash. The fence splits model checking into two subtrees,
// the first one nine executions long: a wide campaign claims the second
// while the first still runs, under a budget that overshoots a cap
// falling inside it.
func fenced() explore.Program {
	p := figure2().Phases()
	return &explore.FuncProgram{
		ProgName: "fenced",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				p[0](w)
				th := w.Thread(0)
				th.SFence("sfence")
				th.Store(addrZ, 1, "z=1")
				th.Store(addrZ, 2, "z=2")
			},
			func(w *pmem.World) {
				p[1](w)
				w.Thread(0).Load(addrZ, "r3=z")
			},
		},
	}
}

// panicker stores then panics in the post-crash phase when x reads
// back as 1: some executions quarantine.
func panicker() explore.Program {
	return &explore.FuncProgram{
		ProgName: "panicker",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				th := w.Thread(0)
				th.Store(addrX, 1, "x=1")
				th.Store(addrY, 1, "y=1")
			},
			func(w *pmem.World) {
				th := w.Thread(0)
				if th.Load(addrX, "r1=x") == 1 {
					panic("post-crash invariant")
				}
			},
		},
	}
}

// testExe is this test binary, re-execed as the worker process.
func testExe(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// fastRetry keeps redelivery waits test-sized.
var fastRetry = RetryPolicy{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Retries: 3, Seed: 42}

// supOptions builds supervised-campaign options re-execing the test
// binary, with chaos injected via the worker environment (never this
// process's).
func supOptions(t *testing.T, prog string, opt explore.Options, workers int, chaos string) Options {
	t.Helper()
	opt.Workers = workers
	env := []string{"PSAN_WORKER_PROCESS=1"}
	if chaos != "" {
		env = append(env, ChaosEnv+"="+chaos)
	}
	return Options{
		Explore:   opt,
		Program:   testPrograms[prog](),
		WorkerBin: testExe(t),
		WorkerEnv: env,
		Lease:     5 * time.Second,
		Retry:     fastRetry,
	}
}

func violationKeys(res *explore.Result) []string {
	keys := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		keys = append(keys, v.Key())
	}
	return keys
}

// sameResult asserts the supervised result is bit-identical to the
// baseline on every determinism-contract field.
func sameResult(t *testing.T, got, want *explore.Result) {
	t.Helper()
	if got.Executions != want.Executions {
		t.Errorf("Executions = %d, want %d", got.Executions, want.Executions)
	}
	if got.Aborted != want.Aborted {
		t.Errorf("Aborted = %d, want %d", got.Aborted, want.Aborted)
	}
	if got.Quarantined != want.Quarantined {
		t.Errorf("Quarantined = %d, want %d", got.Quarantined, want.Quarantined)
	}
	if got.Partial != want.Partial {
		t.Errorf("Partial = %v, want %v", got.Partial, want.Partial)
	}
	if got.StopReason != want.StopReason {
		t.Errorf("StopReason = %q, want %q", got.StopReason, want.StopReason)
	}
	if got.FrontierRemaining != want.FrontierRemaining {
		t.Errorf("FrontierRemaining = %d, want %d", got.FrontierRemaining, want.FrontierRemaining)
	}
	if got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
		t.Errorf("cache = %d/%d, want %d/%d", got.CacheHits, got.CacheMisses, want.CacheHits, want.CacheMisses)
	}
	if got.ExecutionsToAllBugs != want.ExecutionsToAllBugs {
		t.Errorf("ExecutionsToAllBugs = %d, want %d", got.ExecutionsToAllBugs, want.ExecutionsToAllBugs)
	}
	// The sums of the counter columns, over collected executions only.
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Ops", got.Ops, want.Ops},
		{"Retirements", got.Retirements, want.Retirements},
		{"RetiredStores", got.RetiredStores, want.RetiredStores},
		{"RetiredEvents", got.RetiredEvents, want.RetiredEvents},
		{"PinnedRootsMax", got.PinnedRootsMax, want.PinnedRootsMax},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if len(got.ExecErrors) != len(want.ExecErrors) {
		t.Errorf("ExecErrors = %d, want %d", len(got.ExecErrors), len(want.ExecErrors))
	} else {
		for i := range got.ExecErrors {
			if g, w := got.ExecErrors[i].Exec, want.ExecErrors[i].Exec; g != w {
				t.Errorf("ExecErrors[%d].Exec = %d, want %d", i, g, w)
			}
		}
	}
	gk, wk := violationKeys(got), violationKeys(want)
	if len(gk) != len(wk) {
		t.Fatalf("violations = %v, want %v", gk, wk)
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Errorf("violation[%d] = %s, want %s", i, gk[i], wk[i])
		}
	}
}

// TestIsolatedMatchesInProcess: no chaos — a supervised campaign over
// worker processes assembles the same Result as explore.Run, at every
// worker count, in both modes. The windowed cases pin that the unit
// cuts record the reductions the window turns off, as workers check,
// and that the retirement columns cross the pipe. The capped case cuts
// inside a unit's columns; the quarantine cases put reported executions
// between plain ones.
func TestIsolatedMatchesInProcess(t *testing.T) {
	cases := []struct {
		name string
		prog string
		opt  explore.Options
	}{
		{"random", "figure2", explore.Options{Mode: explore.Random, Executions: 300, Seed: 11}},
		{"random-quarantine", "panicker", explore.Options{Mode: explore.Random, Executions: 300, Seed: 5}},
		{"random-windowed", "figure7", explore.Options{Mode: explore.Random, Executions: 300, Seed: 11, Model: persist.Config{Window: 4}}},
		{"mc", "figure7", explore.Options{Mode: explore.ModelCheck, Executions: 10000}},
		{"mc-capped", "fenced", explore.Options{Mode: explore.ModelCheck, Executions: 11}},
		{"mc-windowed", "figure7", explore.Options{Mode: explore.ModelCheck, Executions: 10000, Model: persist.Config{Window: 4}}},
		{"mc-quarantine", "panicker", explore.Options{Mode: explore.ModelCheck, Executions: 10000}},
	}
	for _, tc := range cases {
		base := explore.Run(testPrograms[tc.prog](), withWorkers(tc.opt, 1))
		if tc.opt.Model.Window > 0 && base.Retirements == 0 {
			t.Fatalf("%s: no retirements; the case does not fill the retirement columns", tc.name)
		}
		if strings.HasSuffix(tc.name, "quarantine") && (base.Quarantined == 0 || base.Quarantined == base.Executions) {
			t.Fatalf("%s: %d of %d executions quarantined; want some, between plain ones", tc.name, base.Quarantined, base.Executions)
		}
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				opt := supOptions(t, tc.prog, tc.opt, workers, "")
				opt.unitExecs = 32
				res := Run(opt)
				sameResult(t, res, base)
				if !res.Isolated {
					t.Error("Isolated = false, want true")
				}
				if res.Degraded {
					t.Error("Degraded = true, want false")
				}
			})
		}
	}
}

func withWorkers(opt explore.Options, w int) explore.Options {
	opt.Workers = w
	return opt
}

// TestKillChaosDeterminism: every unit's first delivery is SIGKILLed
// mid-unit (well over three worker kills per campaign); redeliveries
// complete, and the merge is bit-identical to the uninterrupted
// in-process run at every worker count.
func TestKillChaosDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		prog  string
		opt   explore.Options
		chaos string
	}{
		{"random", "figure2", explore.Options{Mode: explore.Random, Executions: 200, Seed: 7}, "kill-after=5"},
		{"mc", "figure7", explore.Options{Mode: explore.ModelCheck, Executions: 10000}, "kill-after=1"},
	}
	for _, tc := range cases {
		base := explore.Run(testPrograms[tc.prog](), withWorkers(tc.opt, 1))
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, workers), func(t *testing.T) {
				opt := supOptions(t, tc.prog, tc.opt, workers, tc.chaos)
				opt.unitExecs = 25
				res := Run(opt)
				sameResult(t, res, base)
				if res.Redeliveries < 3 {
					t.Errorf("Redeliveries = %d, want >= 3 (every unit's first delivery dies)", res.Redeliveries)
				}
				// A respawn is only guaranteed when every kill lands on a
				// slot that already spawned once; with many slots a
				// redelivery may go to a slot spawning its first worker.
				if workers == 1 && res.WorkerRestarts < 1 {
					t.Errorf("WorkerRestarts = %d, want >= 1", res.WorkerRestarts)
				}
				if len(res.PoisonUnits) != 0 {
					t.Errorf("PoisonUnits = %v, want none", res.PoisonUnits)
				}
			})
		}
	}
}

// TestHungWorkerLeaseExpiry: a worker goes silent mid-unit (no exit, no
// heartbeat); the lease expires, the supervisor kills it, and the
// redelivered unit completes — same bytes as the uninterrupted run.
func TestHungWorkerLeaseExpiry(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 60, Seed: 3}
	base := explore.Run(figure2(), withWorkers(eopt, 1))
	opt := supOptions(t, "figure2", eopt, 2, "hang=0")
	opt.unitExecs = 20
	opt.Lease = 400 * time.Millisecond
	res := Run(opt)
	sameResult(t, res, base)
	if res.Redeliveries < 1 {
		t.Errorf("Redeliveries = %d, want >= 1 (the hung unit)", res.Redeliveries)
	}
}

// TestPoisonQuarantine: a unit that kills its worker on every attempt
// exhausts the retry budget and is quarantined; the campaign cuts at it
// with StopReason "poison", full provenance, and a resumable checkpoint
// carrying the supervision record.
func TestPoisonQuarantine(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 60, Seed: 3}
	opt := supOptions(t, "figure2", eopt, 2, "poison=1")
	opt.unitExecs = 20
	opt.Retry = RetryPolicy{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Retries: 1, Seed: 9}
	res := Run(opt)
	if !res.Partial {
		t.Error("Partial = false, want true (coverage lost at the poison unit)")
	}
	if res.StopReason != "poison" {
		t.Errorf("StopReason = %q, want \"poison\"", res.StopReason)
	}
	if len(res.PoisonUnits) != 1 {
		t.Fatalf("PoisonUnits = %d, want 1", len(res.PoisonUnits))
	}
	p := res.PoisonUnits[0]
	if p.ID != 1 || p.Kind != "random" || p.Lo != 20 || p.Hi != 40 {
		t.Errorf("poison provenance = %+v, want unit 1 random [20,40)", p)
	}
	if p.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (1 delivery + 1 retry)", p.Attempts)
	}
	if !strings.Contains(p.ExitStatus, "killed") {
		t.Errorf("ExitStatus = %q, want a kill signal", p.ExitStatus)
	}
	if !strings.Contains(p.StderrTail, "chaos: poisoning") {
		t.Errorf("StderrTail = %q, want the worker's last words", p.StderrTail)
	}
	if s := p.String(); !strings.Contains(s, "[poison]") || !strings.Contains(s, "after 2 attempts") {
		t.Errorf("String() = %q", s)
	}
	// Unit 0's executions were collected before the cut.
	if res.Executions != 20 {
		t.Errorf("Executions = %d, want 20 (unit 0 only)", res.Executions)
	}
	if res.Checkpoint == nil {
		t.Fatal("Checkpoint = nil, want a resumable cut")
	}
	if res.Checkpoint.Collected != 20 {
		t.Errorf("Checkpoint.Collected = %d, want 20", res.Checkpoint.Collected)
	}
	d := res.Checkpoint.Dispatch
	if d == nil {
		t.Fatal("Checkpoint.Dispatch = nil, want the supervision record")
	}
	if len(d.Poison) != 1 || d.Poison[0].Lo != 20 {
		t.Errorf("Dispatch.Poison = %+v, want the quarantined range", d.Poison)
	}
}

// TestDegradedFallback: when worker processes cannot even be spawned,
// the campaign latches degraded mode and completes in-process — same
// bytes, Degraded flagged.
func TestDegradedFallback(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 80, Seed: 5}
	base := explore.Run(figure2(), withWorkers(eopt, 1))
	opt := supOptions(t, "figure2", eopt, 2, "")
	opt.WorkerBin = "/nonexistent/psan-worker"
	opt.unitExecs = 20
	opt.spawnFailLimit = 2
	res := Run(opt)
	sameResult(t, res, base)
	if !res.Degraded {
		t.Error("Degraded = false, want true")
	}
	if res.Isolated {
		t.Error("Isolated = true, want false")
	}
}

// TestInProcessForced: inProcess is a deliberate choice, not a
// degradation — same bytes, Degraded unset.
func TestInProcessForced(t *testing.T) {
	eopt := explore.Options{Mode: explore.ModelCheck, Executions: 10000}
	base := explore.Run(figure2(), withWorkers(eopt, 1))
	opt := supOptions(t, "figure2", eopt, 4, "")
	opt.inProcess = true
	res := Run(opt)
	sameResult(t, res, base)
	if res.Degraded {
		t.Error("Degraded = true, want false (forced, not fallen back)")
	}
	if res.Isolated {
		t.Error("Isolated = true, want false")
	}
}

// TestDefaultWidth: Workers 0 resolves as explore.Run resolves it, to
// one worker process per CPU, and the result matches the in-process run.
func TestDefaultWidth(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 80, Seed: 5}
	base := explore.Run(figure2(), withWorkers(eopt, 1))
	opt := supOptions(t, "figure2", eopt, 0, "")
	opt.unitExecs = 20
	res := Run(opt)
	sameResult(t, res, base)
	if res.Workers != runtime.NumCPU() {
		t.Errorf("Workers = %d, want runtime.NumCPU() = %d", res.Workers, runtime.NumCPU())
	}
}

// TestSupervisorRestart: a campaign halted mid-flight checkpoints; a
// fresh supervisor resumes it, and the final result plus the union of
// violation keys equals the uninterrupted run — the campaign converges
// across supervisor restarts.
func TestSupervisorRestart(t *testing.T) {
	cases := []struct {
		name string
		prog string
		opt  explore.Options
		halt int
	}{
		{"random", "figure2", explore.Options{Mode: explore.Random, Executions: 200, Seed: 13}, 3},
		{"mc", "figure7", explore.Options{Mode: explore.ModelCheck, Executions: 10000}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := explore.Run(testPrograms[tc.prog](), withWorkers(tc.opt, 1))

			opt1 := supOptions(t, tc.prog, tc.opt, 4, "")
			opt1.unitExecs = 20
			opt1.haltAfterUnits = tc.halt
			res1 := Run(opt1)
			if !res1.Partial {
				t.Fatal("halted run not Partial")
			}
			if res1.Checkpoint == nil {
				t.Fatal("halted run has no checkpoint")
			}

			eopt2 := tc.opt
			eopt2.Resume = res1.Checkpoint
			opt2 := supOptions(t, tc.prog, eopt2, 4, "")
			opt2.unitExecs = 20
			res2 := Run(opt2)

			// A resumed run reports only violations NOT already in the
			// checkpoint's key set — exactly like a resumed in-process
			// run, which is the bit-identical baseline.
			base2 := explore.Run(testPrograms[tc.prog](), withWorkers(eopt2, 1))
			sameResult(t, res2, base2)
			union := map[string]bool{}
			for _, k := range violationKeys(res1) {
				union[k] = true
			}
			for _, k := range violationKeys(res2) {
				union[k] = true
			}
			want := violationKeys(base)
			if len(union) != len(want) {
				t.Fatalf("violation union = %d keys, want %d", len(union), len(want))
			}
			for _, k := range want {
				if !union[k] {
					t.Errorf("violation %s missing from the two-run union", k)
				}
			}
		})
	}
}

// TestRestartAfterKillChaos composes the two fault paths: run 1 is
// halted mid-campaign WHILE its workers are being kill-chaosed, and the
// resumed run still converges to the uninterrupted bytes.
func TestRestartAfterKillChaos(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 160, Seed: 21}
	base := explore.Run(figure2(), withWorkers(eopt, 1))

	opt1 := supOptions(t, "figure2", eopt, 4, "kill-after=4")
	opt1.unitExecs = 16
	opt1.haltAfterUnits = 4
	res1 := Run(opt1)
	if res1.Checkpoint == nil {
		t.Fatal("halted run has no checkpoint")
	}
	if res1.Checkpoint.Dispatch == nil {
		t.Fatal("checkpoint carries no supervision record")
	}

	eopt2 := eopt
	eopt2.Resume = res1.Checkpoint
	opt2 := supOptions(t, "figure2", eopt2, 4, "")
	opt2.unitExecs = 16
	res2 := Run(opt2)
	base2 := explore.Run(figure2(), withWorkers(eopt2, 1))
	sameResult(t, res2, base2)
	// Union of the two runs' violations covers the uninterrupted run's.
	union := map[string]bool{}
	for _, k := range violationKeys(res1) {
		union[k] = true
	}
	for _, k := range violationKeys(res2) {
		union[k] = true
	}
	for _, k := range violationKeys(base) {
		if !union[k] {
			t.Errorf("violation %s missing from the two-run union", k)
		}
	}
	// The supervision record is cumulative across restarts.
	if res2.Redeliveries < res1.Redeliveries {
		t.Errorf("Redeliveries = %d after resume, want >= run 1's %d", res2.Redeliveries, res1.Redeliveries)
	}
}

// TestWorkerValidationRejectsSkew: a worker whose options disagree with
// the delivered cut answers with a permanent fatal naming the field —
// the unit quarantines immediately, no retry storm.
func TestWorkerValidationRejectsSkew(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 40, Seed: 3}
	opt := supOptions(t, "figure2", eopt, 1, "")
	opt.unitExecs = 20
	// Sabotage: the supervisor ships hello options with a different seed
	// than the cuts it delivers, so every unit fails validation.
	opt.Explore.Seed = 3
	res := runWithSkewedHello(t, opt)
	if res.StopReason != "poison" {
		t.Errorf("StopReason = %q, want \"poison\"", res.StopReason)
	}
	if len(res.PoisonUnits) != 1 {
		t.Fatalf("PoisonUnits = %d, want 1 (permanent fatal, no retries)", len(res.PoisonUnits))
	}
	p := res.PoisonUnits[0]
	if p.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (permanent failures skip the retry budget)", p.Attempts)
	}
	if !strings.Contains(p.LastError, "seed") {
		t.Errorf("LastError = %q, want the mismatched field named", p.LastError)
	}
}

// runWithSkewedHello runs a campaign whose hello message carries a
// wrong seed (test-only protocol sabotage).
func runWithSkewedHello(t *testing.T, opt Options) *explore.Result {
	t.Helper()
	s := newSupervisor(opt)
	s.hello.Opts.Seed = opt.Explore.Seed + 1000
	return s.run()
}

// TestProtoOptionsRoundTrip: the wire options rebuild the exact
// stream-defining knobs, both modes.
func TestProtoOptionsRoundTrip(t *testing.T) {
	in := explore.Options{
		Mode:        explore.ModelCheck,
		Executions:  123,
		Seed:        77,
		Model:       persist.Config{Window: 4},
		Provenance:  true,
		OpLimit:     9,
		StepTimeout: 250 * time.Millisecond,
	}
	out := optionsFromWire(optionsToWire(in))
	if out.Mode != in.Mode || out.Executions != in.Executions || out.Seed != in.Seed ||
		out.Model.Window != in.Model.Window || out.Provenance != in.Provenance ||
		out.OpLimit != in.OpLimit || out.StepTimeout != in.StepTimeout {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
	in.Mode = explore.Random
	if out := optionsFromWire(optionsToWire(in)); out.Mode != explore.Random {
		t.Errorf("random mode round trip = %v", out.Mode)
	}
}

// TestMetricsWired: the dispatch counters land in the campaign's
// registry under their documented names.
func TestMetricsWired(t *testing.T) {
	eopt := explore.Options{Mode: explore.Random, Executions: 100, Seed: 7}
	opt := supOptions(t, "figure2", eopt, 1, "kill-after=5")
	opt.unitExecs = 25
	reg := obs.NewRegistry()
	opt.Explore.Obs = &obs.Observer{Metrics: reg}
	res := Run(opt)
	if res.Redeliveries < 1 {
		t.Fatalf("Redeliveries = %d, want >= 1", res.Redeliveries)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		"dispatch.units_dispatched", "dispatch.units_merged",
		"dispatch.leases_granted", "dispatch.redeliveries",
		"dispatch.worker_restarts",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("metric %s = %v, want > 0 (counters: %v)", name, snap.Counters[name], sortedKeys(snap.Counters))
		}
	}
	if snap.Histograms["dispatch.unit_ns"].Count <= 0 {
		t.Error("dispatch.unit_ns histogram recorded nothing")
	}
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fakeProc is a proc whose worker's stdout is out: deliver reads it as
// the worker's messages and discards what it sends.
func fakeProc(out string) *proc {
	p := &proc{
		cmd:    &exec.Cmd{},
		stdin:  nopCloser{io.Discard},
		enc:    json.NewEncoder(io.Discard),
		events: make(chan workerMsg, 16),
		stderr: &tailBuffer{},
	}
	go p.read(strings.NewReader(out))
	return p
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

// TestMalformedResultRefused: the supervisor folds a worker's columns
// by index, so it refuses a result whose shape the fold cannot trust —
// a short stream, a ragged column, a report offset out of range or out
// of order, retirement columns that do not match the window, or the
// old one-object-per-execution shape — as a protocol fault that kills
// the worker and redelivers the unit, never as a stream to fold.
func TestMalformedResultRefused(t *testing.T) {
	const execs = 4
	spec := explore.UnitSpec{Random: &explore.RandomRange{Lo: 8, Hi: 8 + execs}}
	good := func() *explore.UnitResult {
		return &explore.UnitResult{N: execs, Ops: make([]int64, execs), Done: true,
			Reports: []explore.ExecReport{{Offset: 1, Aborted: true}, {Offset: 3, Aborted: true}}}
	}
	line := func(ur *explore.UnitResult) string {
		b, err := json.Marshal(workerMsg{Type: "result", ID: 2, Result: ur})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	// want names the check that must refuse the line: the stream check,
	// or, for a shape this supervisor does not know, the strict decode.
	cases := []struct {
		name   string
		window int
		out    string
		want   string
	}{
		{"short stream", 0, line(func() *explore.UnitResult {
			ur := good()
			ur.N, ur.Ops = execs-1, ur.Ops[:execs-1]
			return ur
		}()), "unit result"},
		{"ragged ops column", 0, line(func() *explore.UnitResult { ur := good(); ur.Ops = ur.Ops[1:]; return ur }()), "unit result"},
		{"offset out of range", 0, line(func() *explore.UnitResult { ur := good(); ur.Reports[1].Offset = execs; return ur }()), "unit result"},
		{"offset not increasing", 0, line(func() *explore.UnitResult { ur := good(); ur.Reports[1].Offset = 1; return ur }()), "unit result"},
		{"retirement column without a window", 0, line(func() *explore.UnitResult {
			ur := good()
			ur.Retirements = make([]int64, execs)
			return ur
		}()), "unit result"},
		{"missing retirement column", 4, line(func() *explore.UnitResult {
			ur := good()
			ur.Retirements, ur.RetiredStores, ur.RetiredEvents, ur.PinnedRoots = make([]int64, execs), make([]int64, execs), make([]int64, execs), make([]int64, execs)
			return ur
		}()), "unit result"},
		// What an older worker binary, one object per execution, sends for a
		// four-execution figure2 unit.
		{"old per-execution shape", 0, `{"type":"result","id":2,"result":{"Classified":false,"Class":{"key":{"image":0,"heap":0}},` +
			`"Execs":[{"Aborted":false,"Err":null,"Violations":null,"Ops":6},{"Aborted":false,"Err":null,"Violations":null,"Ops":6},` +
			`{"Aborted":false,"Err":null,"Violations":null,"Ops":6},{"Aborted":false,"Err":null,"Violations":null,"Ops":6}],` +
			`"Done":true,"SnapshotRestores":0,"WorkNanos":154607}}` + "\n", `unknown field "Execs"`},
	}
	um := unitMsg{Type: "unit", ID: 2, Spec: spec}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			um.Cut.Window = c.window
			ur, err := fakeProc(c.out).deliver(um, 5*time.Second, nil, nil)
			if err == nil {
				t.Fatalf("folded a malformed result: %+v", ur)
			}
			pe := err.(*procError)
			if pe.reason != "protocol" || pe.permanent || !strings.Contains(pe.detail, c.want) {
				t.Fatalf("error = %v (permanent %v), want a redeliverable protocol fault naming %q", pe, pe.permanent, c.want)
			}
		})
	}
	// The well-formed stream, windowed or not, is accepted as sent.
	for _, window := range []int{0, 4} {
		ur := good()
		if window > 0 {
			ur.Retirements, ur.RetiredStores, ur.RetiredEvents, ur.PinnedRoots, ur.SweepNanos = make([]int64, execs), make([]int64, execs), make([]int64, execs), make([]int64, execs), make([]int64, execs)
		}
		um.Cut.Window = window
		got, err := fakeProc(line(ur)).deliver(um, 5*time.Second, nil, nil)
		if err != nil {
			t.Fatalf("window %d: well-formed result refused: %v", window, err)
		}
		if got.N != execs || len(got.Reports) != 2 {
			t.Fatalf("window %d: delivered %+v", window, got)
		}
	}
}

// BenchmarkUnitWire measures the result leg of the unit protocol: one
// 2,500-execution random unit of figure2 encoded as a worker sends it
// and decoded as the supervisor reads it (strictly). It reports the
// message's bytes and the round trip's time per execution.
func BenchmarkUnitWire(b *testing.B) {
	const execs = 2500
	ur, err := explore.RunUnit(figure2(), explore.Options{Mode: explore.Random, Executions: execs, Seed: 1},
		explore.UnitSpec{Random: &explore.RandomRange{Hi: execs}}, explore.UnitHooks{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(workerMsg{Type: "result", Result: ur}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(buf.Len())/execs, "B/exec")
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		var m workerMsg
		if err := dec.Decode(&m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/execs, "ns/exec")
}
