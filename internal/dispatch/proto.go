// Supervisor↔worker wire protocol: JSON lines over the worker process's
// stdin (supervisor→worker) and stdout (worker→supervisor). The
// vocabulary is deliberately the checkpoint format (internal/explore,
// version 4): a work unit is described to the worker as a
// checkpoint-shaped cut, which the worker Validates against its own
// program and options before running — a checkpoint-version, program,
// mode, model or window skew between supervisor and worker binaries
// surfaces as a typed explore.MismatchError in a fatal message, not as
// silently divergent exploration.
package dispatch

import (
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/persist"
)

// helloMsg is the supervisor's first message on a fresh worker process:
// the program to load and the campaign options. The worker answers with
// a ready ack (or a permanent fatal if it cannot load the program).
type helloMsg struct {
	Type        string        `json:"type"` // "hello"
	ProgramName string        `json:"programName"`
	ProgramPath string        `json:"programPath,omitempty"`
	Opts        wireOptions   `json:"opts"`
	Telemetry   telemetrySpec `json:"telemetry"`
}

// telemetrySpec mirrors the supervisor's attached obs sinks: the worker
// builds a matching local bundle and ships its contents back — metric
// deltas and span tails on heartbeats, a final top-up plus flight
// events on the result. A field being false means the supervisor has no
// such sink, so recording (and shipping) would be wasted work.
type telemetrySpec struct {
	Metrics bool `json:"metrics,omitempty"`
	Trace   bool `json:"trace,omitempty"`
	Flight  bool `json:"flight,omitempty"`
}

// wireOptions is the subset of explore.Options that defines the
// canonical execution stream (plus the per-execution guards). Anything
// omitted here must not change what a unit produces.
type wireOptions struct {
	Mode           string `json:"mode"`
	Executions     int    `json:"executions"`
	Seed           int64  `json:"seed"`
	Model          string `json:"model,omitempty"`
	Window         int    `json:"window,omitempty"`
	StoreBuffers   bool   `json:"storeBuffers,omitempty"`
	NoSteering     bool   `json:"noSteering,omitempty"`
	DisableChecker bool   `json:"disableChecker,omitempty"`
	Provenance     bool   `json:"provenance,omitempty"`
	OpLimit        int    `json:"opLimit,omitempty"`
	StepTimeoutNS  int64  `json:"stepTimeoutNs,omitempty"`
}

// optionsToWire extracts the stream-defining knobs.
func optionsToWire(opt explore.Options) wireOptions {
	return wireOptions{
		Mode:           opt.Mode.String(),
		Executions:     opt.Executions,
		Seed:           opt.Seed,
		Model:          opt.Model.Name,
		Window:         opt.Model.Window,
		StoreBuffers:   opt.StoreBuffers,
		NoSteering:     opt.NoSteering,
		DisableChecker: opt.DisableChecker,
		Provenance:     opt.Provenance,
		OpLimit:        opt.OpLimit,
		StepTimeoutNS:  int64(opt.StepTimeout),
	}
}

// optionsFromWire rebuilds the worker-side explore.Options.
func optionsFromWire(w wireOptions) explore.Options {
	opt := explore.Options{
		Executions:     w.Executions,
		Seed:           w.Seed,
		Model:          persist.Config{Name: w.Model, Window: w.Window},
		StoreBuffers:   w.StoreBuffers,
		NoSteering:     w.NoSteering,
		DisableChecker: w.DisableChecker,
		Provenance:     w.Provenance,
		OpLimit:        w.OpLimit,
		StepTimeout:    time.Duration(w.StepTimeoutNS),
	}
	if w.Mode == explore.ModelCheck.String() {
		opt.Mode = explore.ModelCheck
	} else {
		opt.Mode = explore.Random
	}
	return opt
}

// unitMsg delivers one work unit. Cut is the checkpoint-shaped identity
// the worker validates; Spec is the unit itself (Cut.MC and Spec.MC are
// the same block — the redundancy is one line of JSON and buys the
// validation).
type unitMsg struct {
	Type    string             `json:"type"` // "unit"
	ID      int                `json:"id"`
	Attempt int                `json:"attempt"` // 0-based delivery attempt
	LeaseMS int64              `json:"leaseMs"`
	Cut     explore.Checkpoint `json:"cut"`
	Spec    explore.UnitSpec   `json:"spec"`
}

// workerMsg is every worker→supervisor message.
//
//	ready       worker loaded the program and accepts units; carries the
//	            worker's pid and tracer clock origin for span rebasing
//	hb          lease heartbeat (Execs = executions so far in the unit);
//	            piggybacks the metric delta and span tail since the last
//	            ship
//	classified  early subtree classification (mc units; lets the
//	            supervisor dispatch the successor before this unit ends)
//	result      the unit's completed stream, plus the final telemetry
//	            top-up (delta, spans, flight events). The stream is
//	            explore.UnitResult as is: per-execution counter columns
//	            and a list of the executions with something to report,
//	            not one object per execution. The supervisor decodes
//	            strictly and refuses a stream UnitResult.Validate
//	            rejects as a protocol fault (the unit is redelivered).
//	fatal       the unit (or the worker) failed; Permanent means
//	            redelivery cannot help (validation mismatch, unloadable
//	            program) and the unit should be quarantined directly
type workerMsg struct {
	Type      string                      `json:"type"`
	ID        int                         `json:"id,omitempty"`
	Execs     int                         `json:"execs,omitempty"`
	Class     *explore.UnitClassification `json:"class,omitempty"`
	Result    *explore.UnitResult         `json:"result,omitempty"`
	Error     string                      `json:"error,omitempty"`
	Permanent bool                        `json:"permanent,omitempty"`

	// Telemetry payloads (ready/hb/result; see the type comment).
	Pid              int               `json:"pid,omitempty"`
	TraceStartUnixNs int64             `json:"traceStartUnixNs,omitempty"`
	Metrics          *obs.Snapshot     `json:"metrics,omitempty"`
	Spans            []obs.SpanEvent   `json:"spans,omitempty"`
	Flight           []obs.FlightEvent `json:"flight,omitempty"`
}
