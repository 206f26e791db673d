package explore

// Work-stealing scheduler tests: donations must actually fire under the
// ForceSteals hook, must never change the assembled canonical stream,
// and must survive the checkpoint/resume chain, a binding execution
// budget, and a mid-steal stop. The cross-benchmark determinism sweep
// lives in the repo-root determinism suite
// (TestStealDeterminismModelCheck); these tests pin the engine-local
// invariants the sweep cannot see, like Result.Steals and
// FrontierRemaining.

import (
	"reflect"
	"testing"
	"time"
)

// TestStealsFire proves the donation path actually runs: ForceSteals
// makes every loop top with a donatable cut carve a unit, so a
// multi-unit program must report Steals > 0 — and the stolen schedule
// must still match the never-stealing baseline bit for bit.
func TestStealsFire(t *testing.T) {
	base := Run(figure2(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 1,
	})
	if base.Steals != 0 {
		t.Fatalf("Workers=1 run reported %d steals", base.Steals)
	}
	for _, workers := range []int{1, 8} {
		res := Run(figure2(), Options{
			Mode: ModelCheck, Executions: 10000, Workers: workers, ForceSteals: true,
		})
		if res.Steals == 0 {
			t.Fatalf("workers=%d: ForceSteals run donated nothing", workers)
		}
		if !reflect.DeepEqual(res.ViolationKeys(), base.ViolationKeys()) ||
			res.Executions != base.Executions || res.Aborted != base.Aborted {
			t.Fatalf("workers=%d: stolen schedule diverged: %s vs %s", workers, res, base)
		}
	}
}

// TestStealDemandDonationParallel exercises the production trigger (a
// hungry peer, not the test hook): with more workers than root
// subtrees, idle workers go hungry and busy ones donate. The donation
// count is timing-dependent, so only the assembled stream is pinned.
func TestStealDemandDonationParallel(t *testing.T) {
	base := Run(figure2(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 1,
	})
	res := Run(figure2(), Options{Mode: ModelCheck, Executions: 10000, Workers: 16})
	if !reflect.DeepEqual(res.ViolationKeys(), base.ViolationKeys()) ||
		res.Executions != base.Executions || res.Aborted != base.Aborted {
		t.Fatalf("demand-stolen schedule diverged: %s vs %s", res, base)
	}
}

// TestStealCheckpointResumeChain interrupts a steal-heavy campaign
// under doubling deadlines and chains resumes to completion: the
// cumulative counts, cache stats, and merged violation set must equal
// the uninterrupted never-stealing run. This crosses the two hardest
// checkpoint paths — a cut landing inside a stolen unit, and a resumed
// root that immediately re-donates.
func TestStealCheckpointResumeChain(t *testing.T) {
	full := Run(figure7(), Options{Mode: ModelCheck, Executions: 10000, Workers: 1})
	res, merged := runToCompletion(t, figure7(), Options{
		Mode: ModelCheck, Executions: 10000, Workers: 4, ForceSteals: true,
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

// TestStealBudgetCapDeterminism pins the allowance rule where it
// binds: with the Executions cap cutting the enumeration short, the
// steal-heavy engine must truncate at exactly the same canonical
// prefix as the serial never-stealing one, at any worker count.
func TestStealBudgetCapDeterminism(t *testing.T) {
	// Pilot the full enumeration to pick a cap that genuinely binds.
	total := Run(figure7(), Options{Mode: ModelCheck, Executions: 10000, Workers: 1}).Executions
	if total < 4 {
		t.Fatalf("figure7 enumerates only %d executions, cap cannot bind", total)
	}
	cap := total / 2
	base := Run(figure7(), Options{
		Mode: ModelCheck, Executions: cap, Workers: 1,
	})
	if base.Executions != cap {
		t.Fatalf("baseline ran %d executions under a cap of %d", base.Executions, cap)
	}
	for _, workers := range []int{1, 4, 16} {
		res := Run(figure7(), Options{
			Mode: ModelCheck, Executions: cap, Workers: workers, ForceSteals: true,
		})
		if !reflect.DeepEqual(res.ViolationKeys(), base.ViolationKeys()) ||
			res.Executions != base.Executions || res.Aborted != base.Aborted ||
			res.ExecutionsToAllBugs != base.ExecutionsToAllBugs {
			t.Fatalf("workers=%d: capped stolen schedule diverged: %s vs %s", workers, res, base)
		}
	}
}

// TestStealFrontierRemainingMidStop pins FrontierRemaining across a
// stop landing mid-steal: a partial steal-heavy leg must report
// unexplored work and carry a checkpoint, and the final leg of the
// chain must report a drained frontier.
func TestStealFrontierRemainingMidStop(t *testing.T) {
	opt := Options{
		Mode: ModelCheck, Executions: 10000, Workers: 4, ForceSteals: true,
		// Small enough to trip mid-enumeration; the chain doubles it each
		// leg so the run always converges.
		Deadline: 50 * time.Microsecond,
	}
	p := figure7()
	sawPartial := false
	for leg := 0; ; leg++ {
		if leg > 50 {
			t.Fatal("resume chain did not converge in 50 legs")
		}
		res := Run(p, opt)
		if !res.Partial {
			if res.FrontierRemaining != 0 {
				t.Fatalf("complete leg reports %d frontier units remaining", res.FrontierRemaining)
			}
			break
		}
		sawPartial = true
		if res.FrontierRemaining == 0 {
			t.Fatalf("partial leg reports a drained frontier: %s", res)
		}
		if res.Checkpoint == nil {
			t.Fatalf("partial leg without a checkpoint: %s", res)
		}
		opt.Resume = res.Checkpoint
		opt.Deadline *= 2
	}
	if !sawPartial {
		t.Skip("deadline never interrupted the run; nothing to pin")
	}
}
