// Checkpoint/resume for interrupted campaigns.
//
// A partial run (deadline, context cancellation, SIGINT) returns a
// Checkpoint describing exactly where the canonical execution stream
// was cut, and a later run started with Options.Resume continues from
// that cut. Determinism is inherited from the engines: random mode's
// seed depends only on the execution index, so the cursor is just the
// number of executions collected; model-check mode's cut is the first
// unfinished subtree in canonical (subtree-ordinal) order, resumed from
// its sub-DFS decision trail with the state cache re-primed so the
// hit/miss pattern — and therefore the execution stream — is identical
// to an uninterrupted run's. The union of the partial run's and the
// resumed run's violation key sets equals the uninterrupted run's set.
//
// The checkpoint does not persist full Violation records (they freeze
// trace state that is meaningless across processes); it persists their
// canonical keys, which is what cross-execution deduplication and the
// convergence guarantee are defined over. A resumed Result therefore
// reports only violations first found after the cut; merge its key set
// with the partial run's to recover the campaign total.
package explore

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/persist"
)

// resolveModel maps the empty model name to the default backend.
func resolveModel(name string) string {
	if name == "" {
		return persist.DefaultModel
	}
	return name
}

// checkpointVersion guards the serialized format. Version 2 switched
// the model-check trail to lazy crash-target consumption (decision
// order = use order); version-1 trails describe a different decision
// ordering and cannot be resumed. Version 3 added the process-isolation
// supervisor's campaign state (Dispatch) and made the format double as
// the supervisor↔worker wire vocabulary — a work unit is described to a
// worker as a checkpoint-shaped cut, which the worker Validates before
// running. Version 4 dropped the crash-state partial-order reduction:
// its on/off flag and the cut subtree's registrations.
const checkpointVersion = 4

// Checkpoint is the resume state of a partial exploration run.
type Checkpoint struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	Mode    string `json:"mode"`
	Seed    int64  `json:"seed"`
	// Model is the persistency-model backend the campaign ran under
	// (empty in pre-model checkpoints, meaning the default backend).
	// Verdicts and decision trees are model-relative, so resuming under
	// a different backend would merge incomparable results.
	Model string `json:"model,omitempty"`
	// Window records the retirement-window size the campaign ran under
	// (0 = unbounded). The model-check reductions run only without a
	// window, and the state cache changes which executions the canonical
	// stream contains, so a resume must use the same window.
	Window int `json:"window,omitempty"`
	// Collected is the canonical execution cursor: how many executions
	// of the uninterrupted stream were collected before the cut. Random
	// mode resumes at exactly this index.
	Collected   int `json:"collected"`
	Aborted     int `json:"aborted"`
	Quarantined int `json:"quarantined"`
	// ViolationKeys are the canonical keys (core.Violation.Key) of every
	// violation found before the cut, priming the resumed run's
	// cross-execution dedup.
	ViolationKeys []string      `json:"violationKeys,omitempty"`
	MC            *MCCheckpoint `json:"mc,omitempty"`
	// Dispatch carries the process-isolation supervisor's campaign state
	// (internal/dispatch, version 3): cumulative redelivery and restart
	// totals plus the poison quarantine, so a resumed -isolate campaign
	// reports cumulatively and re-attempts quarantined units with a
	// fresh retry budget. In-process resumes ignore it.
	Dispatch *DispatchCheckpoint `json:"dispatch,omitempty"`
}

// DispatchCheckpoint is the supervisor-specific resume state.
type DispatchCheckpoint struct {
	Redeliveries   int            `json:"redeliveries"`
	WorkerRestarts int            `json:"workerRestarts"`
	Poison         []PoisonRecord `json:"poison,omitempty"`
}

// PoisonRecord is the serialized identity of a quarantined work unit.
// The canonical cut always falls at or before the first poisoned unit,
// so a resume re-attempts it; the record preserves the campaign's
// failure history across that restart.
type PoisonRecord struct {
	Kind     string `json:"kind"` // "mc" or "random"
	Subtree  int    `json:"subtree,omitempty"`
	Lo       int    `json:"lo,omitempty"`
	Hi       int    `json:"hi,omitempty"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"lastError,omitempty"`
}

// MCCheckpoint is the model-check-specific resume state: the cut
// subtree and everything needed to replay the engine's determinism.
type MCCheckpoint struct {
	// Subtree is the ordinal (phase-0 crash target) of the first
	// unfinished subtree — the cut point of the canonical stream.
	Subtree int `json:"subtree"`
	// Started reports whether the cut subtree ran any executions; if so,
	// Trail is its sub-DFS decision trail, positioned at the next
	// unexplored execution.
	Started bool         `json:"started"`
	Trail   []TrailEntry `json:"trail,omitempty"`
	// SpawnNext records whether the cut subtree's first execution fired
	// its phase-0 crash injection — i.e. whether subtree Subtree+1
	// exists and must be explored after the cut subtree.
	SpawnNext bool `json:"spawnNext"`
	// CacheKeys are the state-cache registrations made by subtrees up to
	// and including the cut subtree, in registration order; priming them
	// reproduces the uninterrupted run's prune pattern for the subtrees
	// explored after resume.
	CacheKeys []CacheEntry `json:"cacheKeys,omitempty"`
	// CacheHits and CacheMisses seed the resumed run's counters so its
	// final stats are cumulative.
	CacheHits   int `json:"cacheHits"`
	CacheMisses int `json:"cacheMisses"`
}

// TrailEntry is one serialized DFS decision.
type TrailEntry struct {
	Val    int `json:"v"`
	Domain int `json:"d"`
}

// CacheEntry is one serialized state-cache key.
type CacheEntry struct {
	Image uint64 `json:"image"`
	Heap  int    `json:"heap"`
}

// checkpointHeader is the campaign identity every checkpoint carries —
// a resume point's, and a work unit's cut (Scheduler.Cut) — which
// Validate checks a resuming run or a worker process against.
func (o *Options) checkpointHeader(program string) Checkpoint {
	return Checkpoint{
		Version: checkpointVersion,
		Program: program,
		Mode:    o.Mode.String(),
		Seed:    o.Seed,
		Model:   resolveModel(o.Model.Name),
		Window:  o.Model.Window,
	}
}

// Save writes the checkpoint to path as JSON, atomically (write to a
// temp file in the same directory, then rename).
func (c *Checkpoint) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save. Whether the run
// can resume it, its format version included, is Validate's call.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return &c, nil
}

// MismatchError is a typed checkpoint-validation failure: the named
// field disagrees between the checkpoint (Have) and the run trying to
// resume it (Want). It names both sides because the error is no longer
// just a CLI nit — the dispatch supervisor speaks the checkpoint format
// to its worker processes, and a worker that rejects a unit spec must
// say exactly which field disagreed for the supervisor's poison record
// to be actionable.
type MismatchError struct {
	Field string // "version", "program", "mode", "seed", "model", "window", "mc-state"
	Have  string // the checkpoint's side
	Want  string // the resuming run's side
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint %s mismatch: checkpoint has %s, run wants %s", e.Field, e.Have, e.Want)
}

// Validate checks that the checkpoint belongs to the same campaign the
// options describe; resuming a mismatched checkpoint would silently
// explore garbage, and so would a checkpoint or a work unit's cut
// written by a build with another checkpoint format. Every failure is a
// *MismatchError naming the field and both sides.
func (c *Checkpoint) Validate(program string, opt Options) error {
	if c.Version != checkpointVersion {
		return &MismatchError{Field: "version", Have: fmt.Sprintf("%d", c.Version), Want: fmt.Sprintf("%d", checkpointVersion)}
	}
	if c.Program != program {
		return &MismatchError{Field: "program", Have: fmt.Sprintf("%q", c.Program), Want: fmt.Sprintf("%q", program)}
	}
	if c.Mode != opt.Mode.String() {
		return &MismatchError{Field: "mode", Have: c.Mode, Want: opt.Mode.String()}
	}
	if opt.Mode == Random && c.Seed != opt.Seed {
		return &MismatchError{Field: "seed", Have: fmt.Sprintf("%d", c.Seed), Want: fmt.Sprintf("%d", opt.Seed)}
	}
	if resolveModel(c.Model) != resolveModel(opt.Model.Name) {
		return &MismatchError{Field: "model", Have: resolveModel(c.Model), Want: resolveModel(opt.Model.Name)}
	}
	if c.Window != opt.Model.Window {
		return &MismatchError{Field: "window", Have: fmt.Sprintf("%d", c.Window), Want: fmt.Sprintf("%d", opt.Model.Window)}
	}
	if c.Mode == ModelCheck.String() && c.MC == nil {
		return &MismatchError{Field: "mc-state", Have: "absent", Want: "present"}
	}
	return nil
}

// trailFromCheckpoint rebuilds a controller trail.
func trailFromCheckpoint(es []TrailEntry) []decision {
	trail := make([]decision, len(es))
	for i, e := range es {
		trail[i] = decision{val: e.Val, domain: e.Domain}
	}
	return trail
}

// trailToCheckpoint serializes a controller trail.
func trailToCheckpoint(trail []decision) []TrailEntry {
	es := make([]TrailEntry, len(trail))
	for i, d := range trail {
		es[i] = TrailEntry{Val: d.val, Domain: d.domain}
	}
	return es
}
