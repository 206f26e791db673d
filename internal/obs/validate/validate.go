// Package validate checks what internal/obs emits: the Chrome trace_event
// JSON written for chrome://tracing and the OpenMetrics exposition. It is
// used by the obs-smoke CI job and by tests to catch malformed output before
// a human ever loads it in a trace viewer or a scraper reads it.
package validate

import (
	"encoding/json"
	"fmt"
	"io"
)

// event mirrors the subset of trace_event fields we validate.
type event struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *int64          `json:"ts"`
	Dur  int64           `json:"dur"`
	Args json.RawMessage `json:"args"`
}

// Stats summarizes a validated trace.
type Stats struct {
	Events   int // total events, metadata included
	Spans    int // ph "X" complete spans
	Timeline int // distinct (pid, tid) timelines carrying spans
	Procs    int // distinct pids carrying spans
}

func checkEvent(i int, ev event) error {
	if ev.Name == "" {
		return fmt.Errorf("event %d: missing name", i)
	}
	switch ev.Ph {
	case "X", "i", "I", "M", "B", "E":
	default:
		return fmt.Errorf("event %d (%s): unsupported ph %q", i, ev.Name, ev.Ph)
	}
	if ev.Ph == "M" {
		return nil // metadata events carry no timestamp requirements
	}
	if ev.Pid == nil || ev.Tid == nil || ev.Ts == nil {
		return fmt.Errorf("event %d (%s): missing pid/tid/ts", i, ev.Name)
	}
	if *ev.Ts < 0 {
		return fmt.Errorf("event %d (%s): negative ts %d", i, ev.Name, *ev.Ts)
	}
	if *ev.Tid < 0 {
		return fmt.Errorf("event %d (%s): negative tid %d", i, ev.Name, *ev.Tid)
	}
	if ev.Ph == "X" && ev.Dur < 0 {
		return fmt.Errorf("event %d (%s): negative dur %d", i, ev.Name, ev.Dur)
	}
	return nil
}

func tally(events []event) (Stats, error) {
	s := Stats{Events: len(events)}
	// Fleet-merged traces interleave several processes: timelines are
	// (pid, tid) pairs, never bare tids — two workers both using tid 1
	// are two timelines.
	type timeline struct{ pid, tid int }
	tids := map[timeline]bool{}
	pids := map[int]bool{}
	for i, ev := range events {
		if err := checkEvent(i, ev); err != nil {
			return s, err
		}
		if ev.Ph == "X" {
			s.Spans++
			tids[timeline{*ev.Pid, *ev.Tid}] = true
			pids[*ev.Pid] = true
		}
	}
	s.Timeline = len(tids)
	s.Procs = len(pids)
	if s.Spans == 0 {
		return s, fmt.Errorf("trace has no complete (ph=X) spans")
	}
	return s, nil
}

// Chrome validates a Chrome trace_event JSON document: a top-level object
// with a traceEvents array, every event well-formed, and at least one
// complete span.
func Chrome(r io.Reader) (Stats, error) {
	var env struct {
		TraceEvents *[]event `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return Stats{}, fmt.Errorf("parse chrome trace: %w", err)
	}
	if env.TraceEvents == nil {
		return Stats{}, fmt.Errorf("chrome trace: missing traceEvents array")
	}
	return tally(*env.TraceEvents)
}
