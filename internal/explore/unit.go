// Work units: one model-check subtree or one random-mode index range,
// the grain of every exploration path. RunUnit runs one to completion
// in this process and returns its raw, unassembled execution stream —
// the body of a psan-worker process and of the dispatch supervisor's
// degraded in-process fallback.
//
// A unit is described in the checkpoint vocabulary (UnitSpec embeds
// MCCheckpoint for model-check units; a random unit is just an index
// range), so the supervisor↔worker wire protocol and the on-disk resume
// format are one format. Determinism is inherited wholesale: RunUnit
// runs a unit through the same unit runner as Run's workers (same trail
// replay, same primed state cache; a random unit's executions depend
// only on their indices), and the supervisor folds the streams through
// the same Scheduler as Run, so the result is bit-identical at any
// worker count and under any kill schedule.
package explore

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// UnitSpec describes one work unit. Exactly one of Random and MC is set.
type UnitSpec struct {
	// Random is a random-mode index range: executions [Lo, Hi) of the
	// canonical stream.
	Random *RandomRange `json:"random,omitempty"`
	// MC is a model-check subtree in checkpoint vocabulary: the subtree
	// ordinal, the state-cache keys registered by earlier subtrees (in
	// registration order), and — when resuming a mid-subtree checkpoint
	// cut — the started trail and spawn flag.
	MC *MCCheckpoint `json:"mc,omitempty"`
	// Budget caps the executions a model-check unit records (0: none).
	// It is a conservative overestimate of the canonical remainder; an
	// overshoot is truncated at the supervisor's assembly, never here.
	Budget int `json:"budget,omitempty"`
}

// RandomRange is a contiguous slice of random mode's canonical stream.
type RandomRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Kind names the unit's mode for records and reports.
func (s UnitSpec) Kind() string {
	if s.Random != nil {
		return "random"
	}
	return "mc"
}

// UnitClassification is the outcome of a model-check subtree's first
// crash: whether the state cache pruned the whole subtree, the key it
// registered on a miss, and whether the phase-0 injection fired (i.e.
// the next subtree exists). The supervisor needs it before the unit
// finishes — the next subtree's unit spec embeds this unit's cache
// registration — so it is also delivered early via UnitHooks.OnClassify.
type UnitClassification struct {
	Pruned         bool       `json:"pruned,omitempty"`
	Keyed          bool       `json:"keyed,omitempty"`
	Key            CacheEntry `json:"key"`
	InjectionFired bool       `json:"injectionFired,omitempty"`
}

// UnitResult is a completed (or stopped) unit's raw stream plus its
// classification and diagnostics. The stream is columnar: N executions,
// in canonical sub-DFS (or index) order, each with one entry in every
// counter column, and a short list of the executions that have
// something to report. It is one form on both transports — Run's
// workers fill it and the assembler folds it in place, and a worker
// process ships it as is — so a plain execution costs the wire a number
// per column, not an object. Every stream is deduplicated within its
// unit as it is recorded (workerState.record): each violation is
// carried by the first execution that found it, which is all the
// in-order cross-unit merge needs to reproduce first-found ordering and
// ExecutionsToAllBugs.
type UnitResult struct {
	// Classified reports that this run performed the subtree's first-
	// crash classification (false for random units and for resumed
	// mid-subtree trails, whose classification predates the cut).
	Classified bool               `json:"classified,omitempty"`
	Class      UnitClassification `json:"class"`
	// N is the number of executions the unit recorded.
	N int `json:"n"`
	// Ops is each execution's operation count (0 for a quarantined
	// one), summed into Result.Ops.
	Ops []int64 `json:"ops"`
	// The retirement columns carry each execution's window stats into
	// the Result sums. Only a windowed run fills them (one entry per
	// execution, 0 for a quarantined one); without a window they are
	// empty. PinnedRoots is the execution's largest retirement pin-
	// closure (deterministic, max-merged); SweepNanos its total sweep
	// time (timing, summed, never part of the determinism contract).
	Retirements   []int64 `json:"retirements,omitempty"`
	RetiredStores []int64 `json:"retiredStores,omitempty"`
	RetiredEvents []int64 `json:"retiredEvents,omitempty"`
	PinnedRoots   []int64 `json:"pinnedRoots,omitempty"`
	SweepNanos    []int64 `json:"sweepNanos,omitempty"`
	// Reports lists the executions with something to report — a
	// violation new to the unit, a quarantined ExecError, an abort — in
	// increasing Offset order. Every other execution is plain.
	Reports []ExecReport `json:"reports,omitempty"`
	// Done reports the unit ran to exhaustion (model check) or completed
	// its range (random); false after a stop or a budget bound.
	Done bool `json:"done,omitempty"`
	// SnapshotRestores/WorkNanos feed the supervisor's Result
	// diagnostics, exactly like per-unit sums in the pool.
	SnapshotRestores int   `json:"snapshotRestores,omitempty"`
	WorkNanos        int64 `json:"workNanos,omitempty"`

	// cut is the resume point of a model-check unit a stop parked
	// mid-DFS (nil otherwise). It never crosses the wire: worker
	// processes are never stopped, they are killed.
	cut *MCCheckpoint
}

// ExecReport is the outcome of one execution of a unit that is not
// plain: it was aborted, was quarantined (Err, its world discarded
// unread), or found violations new to the unit.
type ExecReport struct {
	// Offset is the execution's position in its unit, 0 to N−1.
	Offset     int               `json:"offset"`
	Aborted    bool              `json:"aborted,omitempty"`
	Err        *ExecError        `json:"err,omitempty"`
	Violations []*core.Violation `json:"violations,omitempty"`
}

// reset empties ur for reuse, keeping its columns' storage.
func (ur *UnitResult) reset() {
	clear(ur.Reports)
	*ur = UnitResult{
		Ops: ur.Ops[:0], Reports: ur.Reports[:0],
		Retirements: ur.Retirements[:0], RetiredStores: ur.RetiredStores[:0],
		RetiredEvents: ur.RetiredEvents[:0], PinnedRoots: ur.PinnedRoots[:0],
		SweepNanos: ur.SweepNanos[:0],
	}
}

// Validate checks that ur is a well-formed stream of unit spec under a
// trace window of window: a random unit recorded its whole range, a
// model-check unit no more than its budget, every column holds one
// entry per execution (the retirement columns none without a window),
// and the reports' offsets are in range and strictly increasing. The
// fold walks the columns by index and trusts all four; a supervisor
// checks a worker's result before folding it.
func (ur *UnitResult) Validate(spec UnitSpec, window int) error {
	switch {
	case ur.N < 0:
		return fmt.Errorf("unit result: %d executions", ur.N)
	case spec.Random != nil && ur.N != spec.Random.Hi-spec.Random.Lo:
		return fmt.Errorf("unit result: %d executions for range [%d,%d)", ur.N, spec.Random.Lo, spec.Random.Hi)
	case spec.MC != nil && spec.Budget > 0 && ur.N > spec.Budget:
		return fmt.Errorf("unit result: %d executions over a budget of %d", ur.N, spec.Budget)
	case len(ur.Ops) != ur.N:
		return fmt.Errorf("unit result: ops column has %d entries for %d executions", len(ur.Ops), ur.N)
	}
	want := 0
	if window > 0 {
		want = ur.N
	}
	for _, c := range [][]int64{ur.Retirements, ur.RetiredStores, ur.RetiredEvents, ur.PinnedRoots, ur.SweepNanos} {
		if len(c) != want {
			return fmt.Errorf("unit result: a retirement column has %d entries, want %d", len(c), want)
		}
	}
	next := 0
	for _, r := range ur.Reports {
		if r.Offset < next || r.Offset >= ur.N {
			return fmt.Errorf("unit result: report offset %d out of order or range (next %d, %d executions)", r.Offset, next, ur.N)
		}
		next = r.Offset + 1
	}
	return nil
}

// UnitHooks are RunUnit's progress callbacks, all optional. They run on
// the executing goroutine between executions — a worker process uses
// OnExec to heartbeat its lease, so a hung execution goes silent and
// the lease expires.
type UnitHooks struct {
	// OnExec runs after each recorded execution with the unit's count so
	// far.
	OnExec func(n int)
	// OnClassify runs once, at a model-check unit's first crash, with
	// the subtree classification.
	OnClassify func(UnitClassification)
}

// PoisonUnit records one work unit the dispatch supervisor quarantined
// after its retry budget was exhausted: every delivery attempt died
// (worker crash, OOM kill, SIGKILL) or went silent past its lease. The
// record carries the same reproduction provenance as an ExecError — the
// failing unit's identity and trail prefix plus the last worker's exit
// status and stderr tail.
type PoisonUnit struct {
	ID       int
	Kind     string // "mc" or "random"
	Subtree  int    // mc: subtree ordinal
	Lo, Hi   int    // random: index range
	Attempts int
	// TrailPrefix is a mc unit's starting decision-trail values (the
	// resume trail for mid-subtree cuts; empty for a fresh subtree).
	TrailPrefix []int
	LastError   string
	ExitStatus  string
	StderrTail  string
}

// String renders the one-line quarantine record for reports.
func (p *PoisonUnit) String() string {
	where := fmt.Sprintf("subtree %d", p.Subtree)
	if p.Kind == "random" {
		where = fmt.Sprintf("executions [%d,%d)", p.Lo, p.Hi)
	}
	s := fmt.Sprintf("[poison] %s unit %d (%s) after %d attempts: %s", p.Kind, p.ID, where, p.Attempts, p.LastError)
	if p.ExitStatus != "" {
		s += fmt.Sprintf(" (last worker: %s)", p.ExitStatus)
	}
	return s
}

// RunUnit executes one work unit in this process and returns its raw
// stream. It is the single execution path behind both the psan-worker
// process and the supervisor's degraded in-process fallback, which is
// what makes the two modes bit-identical.
//
// Options are interpreted as in Run, except: the unit runs on the
// calling goroutine, the spec's kind sets the mode, and Executions is
// superseded by spec.Budget for model-check units and by the range for
// random ones. A Context/Deadline stop parks the unit with Done false.
func RunUnit(p Program, opt Options, spec UnitSpec, hooks UnitHooks) (*UnitResult, error) {
	if (spec.Random == nil) == (spec.MC == nil) {
		return nil, fmt.Errorf("unit spec must set exactly one of random and mc")
	}
	opt.Workers = 1
	opt.em = obs.ExploreInstruments(opt.Obs.Reg())
	opt.tr = opt.Obs.Trace()
	opt.fr = opt.Obs.Recorder()
	if opt.Model.Obs == nil {
		opt.Model.Obs = opt.Obs
	}
	opt.Mode = Random
	limit, keys := math.MaxInt, []CacheEntry(nil)
	if spec.MC != nil {
		opt.Mode, keys = ModelCheck, spec.MC.CacheKeys
		if spec.Budget > 0 {
			limit = spec.Budget
		}
	}
	ur := &UnitResult{}
	newUnitRunner(p, &opt, newStopper(&opt), keys).run(newWorkerState(p, &opt, 1), spec, hookSink{hooks, limit}, ur)
	return ur, nil
}
