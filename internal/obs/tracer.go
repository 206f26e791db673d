package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer records campaign spans and renders them as Chrome trace_event
// JSON loadable in chrome://tracing / Perfetto.
//
// Timelines are keyed by (pid, tid): tid 0 is the campaign/collector thread,
// worker tids are 1-based. Pid 0 is this process unless SetPid assigns one
// (worker processes stamp their OS pid so fleet-merged traces keep their
// timelines apart). Timestamps are microseconds since the tracer was created,
// as the trace_event format expects. A nil *Tracer is a no-op; recording
// takes one mutex acquisition and one slice append per span, which is
// acceptable because tracing is opt-in (-trace-out).
type Tracer struct {
	start time.Time

	mu        sync.Mutex
	pid       int
	events    []SpanEvent
	names     map[timelineKey]string // (pid, tid) -> timeline name
	procNames map[int]string         // pid -> process name
}

// timelineKey identifies one timeline in a (possibly fleet-merged) trace.
type timelineKey struct{ pid, tid int }

// SpanEvent is one Chrome trace_event record. Ph "X" is a complete span with
// a duration; "i" is an instant; "M" is metadata (thread names).
type SpanEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat,omitempty"`
	Ph   string    `json:"ph"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Ts   int64     `json:"ts"`            // µs since tracer start
	Dur  int64     `json:"dur,omitempty"` // µs, "X" events only
	Args *SpanArgs `json:"args,omitempty"`
}

// SpanArgs carries the span's structured payload.
type SpanArgs struct {
	Exec int64  `json:"exec,omitempty"`
	Name string `json:"name,omitempty"`
	Note string `json:"note,omitempty"`
	// Unit tags a span with the dispatch work-unit id it ran under
	// (fleet-merged traces; 0 when untagged — unit ids on the wire are
	// offset by one so unit 0 survives omitempty).
	Unit int `json:"unit,omitempty"`
}

// NewTracer returns a tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{
		start:     time.Now(),
		names:     make(map[timelineKey]string),
		procNames: make(map[int]string),
	}
}

// SetPid stamps subsequently recorded spans with pid. Worker processes
// call it once at startup so their shipped spans land on distinct
// process rows in the merged trace. No-op on a nil tracer.
func (t *Tracer) SetPid(pid int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pid = pid
	t.mu.Unlock()
}

// StartUnixNano returns the tracer's clock origin as Unix nanoseconds
// (0 on a nil tracer). Workers report it in the ready handshake so the
// supervisor can rebase their relative timestamps.
func (t *Tracer) StartUnixNano() int64 {
	if t == nil {
		return 0
	}
	return t.start.UnixNano()
}

// Now returns the tracer's current timestamp origin for starting a span.
// Returns the zero time on a nil tracer so disabled spans cost a nil check.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *Tracer) ts(at time.Time) int64 {
	d := at.Sub(t.start)
	if d < 0 {
		d = 0
	}
	return d.Microseconds()
}

// Complete records a finished span on timeline tid. exec < 0 omits the exec
// arg. No-op on a nil tracer.
func (t *Tracer) Complete(tid int, cat, name string, start time.Time, dur time.Duration, exec int64) {
	if t == nil {
		return
	}
	ev := SpanEvent{
		Name: name, Cat: cat, Ph: "X",
		Tid: tid, Ts: t.ts(start), Dur: dur.Microseconds(),
	}
	if exec >= 0 {
		ev.Args = &SpanArgs{Exec: exec}
	}
	t.mu.Lock()
	ev.Pid = t.pid
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// CompleteSince records a finished span whose start came from Now(),
// measuring the duration itself. On a nil tracer it is a no-op, and the
// paired Now() returned the zero time — the disabled path reads no clock.
func (t *Tracer) CompleteSince(tid int, cat, name string, start time.Time, exec int64) {
	if t == nil {
		return
	}
	t.Complete(tid, cat, name, start, time.Since(start), exec)
}

// Instant records a point event on timeline tid. No-op on a nil tracer.
func (t *Tracer) Instant(tid int, cat, name, note string) {
	if t == nil {
		return
	}
	ev := SpanEvent{Name: name, Cat: cat, Ph: "i", Tid: tid, Ts: t.ts(time.Now())}
	if note != "" {
		ev.Args = &SpanArgs{Note: note}
	}
	t.mu.Lock()
	ev.Pid = t.pid
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// NameThread labels this process's timeline tid (e.g. "worker-3",
// "campaign"). No-op on a nil tracer.
func (t *Tracer) NameThread(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[timelineKey{t.pid, tid}] = name
	t.mu.Unlock()
}

// NameThreadFor labels timeline tid of process pid — the supervisor
// uses it to label ingested worker timelines. No-op on a nil tracer.
func (t *Tracer) NameThreadFor(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names[timelineKey{pid, tid}] = name
	t.mu.Unlock()
}

// NameProcess labels a process row in the merged trace. No-op on a nil
// tracer.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.procNames[pid] = name
	t.mu.Unlock()
}

// Events returns a copy of the recorded spans in recording order.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(t.events))
	copy(out, t.events)
	return out
}

// EventCount returns how many spans have been recorded so far (0 on a
// nil tracer). With EventsSince it forms the incremental-shipping
// cursor worker processes use.
func (t *Tracer) EventCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// EventsSince returns a copy of the spans recorded at index n and
// later (the tail past an EventCount cursor).
func (t *Tracer) EventsSince(n int) []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(t.events) {
		return nil
	}
	out := make([]SpanEvent, len(t.events)-n)
	copy(out, t.events[n:])
	return out
}

// Ingest appends spans recorded by another process's tracer, rebasing
// their timestamps from that tracer's clock onto this one via the
// remote clock origin (StartUnixNano from the worker's ready
// handshake; both clocks are the same machine's wall clock). Rebased
// timestamps that land before this tracer started clamp to 0. No-op on
// a nil tracer.
func (t *Tracer) Ingest(events []SpanEvent, remoteStartUnixNs int64) {
	if t == nil || len(events) == 0 {
		return
	}
	offsetMicros := (remoteStartUnixNs - t.start.UnixNano()) / 1_000
	t.mu.Lock()
	for _, ev := range events {
		ev.Ts += offsetMicros
		if ev.Ts < 0 {
			ev.Ts = 0
		}
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// all returns spans plus synthesized process_name/thread_name metadata
// events, ordered process rows first then timelines by (pid, tid).
func (t *Tracer) all() []SpanEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, 0, len(t.events)+len(t.names)+len(t.procNames))
	pids := make([]int, 0, len(t.procNames))
	for pid := range t.procNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		out = append(out, SpanEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: &SpanArgs{Name: t.procNames[pid]},
		})
	}
	keys := make([]timelineKey, 0, len(t.names))
	for k := range t.names {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	for _, k := range keys {
		out = append(out, SpanEvent{
			Name: "thread_name", Ph: "M", Pid: k.pid, Tid: k.tid,
			Args: &SpanArgs{Name: t.names[k]},
		})
	}
	out = append(out, t.events...)
	return out
}

// WriteChrome writes the Chrome trace_event envelope:
// {"traceEvents":[...], "displayTimeUnit":"ms"}.
func (t *Tracer) WriteChrome(w io.Writer) error {
	env := struct {
		TraceEvents     []SpanEvent `json:"traceEvents"`
		DisplayTimeUnit string      `json:"displayTimeUnit"`
	}{t.all(), "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(env)
}

// WriteFiles writes the Chrome trace to path.
func (t *Tracer) WriteFiles(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return f.Close()
}
