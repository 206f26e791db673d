package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// The campaign flight recorder: a bounded in-memory ring of structured
// events covering the moments a post-mortem needs — lease
// redeliveries, poison quarantines, execution quarantines, stop-reason
// transitions. Recording is cheap (one
// mutex + ring slot write, no allocation after warm-up) and the ring is
// bounded, so the recorder can run for the whole campaign and be
// dumped only when something goes wrong (poison, ExecError, SIGQUIT)
// or when asked (-flight-out).
//
// Like every obs instrument, a nil *FlightRecorder is a no-op, so
// instrumented code records unconditionally and the disabled path costs
// a nil check.

// DefaultFlightEvents is the ring capacity CLIs use.
const DefaultFlightEvents = 4096

// FlightEvent is one recorded moment.
type FlightEvent struct {
	// Seq is the 1-based global sequence number; gaps at the front of a
	// dump mean the ring wrapped and older events were dropped.
	Seq uint64 `json:"seq"`
	// TS is the wall-clock time in Unix nanoseconds.
	TS int64 `json:"ts"`
	// Pid distinguishes processes in a fleet-merged dump (0: this
	// process never set one).
	Pid int `json:"pid,omitempty"`
	// Cat groups events ("dispatch", "explore", "pmem", ...).
	Cat string `json:"cat"`
	// Name is the event kind ("redelivery", "poison", "quarantine", ...).
	Name string `json:"name"`
	// Unit is the dispatch work-unit id the event concerns (-1: none).
	// It is serialized explicitly — unit 0 is a real id.
	Unit int `json:"unit"`
	// Note carries free-form detail.
	Note string `json:"note,omitempty"`
}

// FlightRecorder is the bounded ring. The zero value is unusable; use
// NewFlightRecorder.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightEvent
	next  int    // ring write position
	total uint64 // events ever recorded
	pid   int
}

// NewFlightRecorder returns a recorder holding the last capacity
// events (capacity <= 0 uses DefaultFlightEvents).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{buf: make([]FlightEvent, 0, capacity)}
}

// SetPid stamps subsequent events with pid (for fleet-merged dumps).
// No-op on a nil recorder.
func (f *FlightRecorder) SetPid(pid int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.pid = pid
	f.mu.Unlock()
}

// Record appends one event. unit < 0 means the event concerns no
// dispatch unit. No-op on a nil recorder.
func (f *FlightRecorder) Record(cat, name string, unit int, note string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.total++
	if unit < 0 {
		unit = -1
	}
	ev := FlightEvent{
		Seq: f.total, TS: time.Now().UnixNano(), Pid: f.pid,
		Cat: cat, Name: name, Unit: unit, Note: note,
	}
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
		f.next = (f.next + 1) % len(f.buf)
	}
	f.mu.Unlock()
}

// Events returns the retained events in recording order.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.buf))
	if len(f.buf) == cap(f.buf) {
		out = append(out, f.buf[f.next:]...)
		out = append(out, f.buf[:f.next]...)
	} else {
		out = append(out, f.buf...)
	}
	return out
}

// Ingest copies events recorded in another process (a dispatch worker)
// into this ring, preserving their origin pid, timestamps, and payload;
// sequence numbers are reassigned locally. No-op on a nil recorder.
func (f *FlightRecorder) Ingest(events []FlightEvent) {
	if f == nil || len(events) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ev := range events {
		f.total++
		ev.Seq = f.total
		if len(f.buf) < cap(f.buf) {
			f.buf = append(f.buf, ev)
		} else {
			f.buf[f.next] = ev
			f.next = (f.next + 1) % len(f.buf)
		}
	}
}

// Total returns how many events were ever recorded (retained or not).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// WriteJSONL writes the retained events, one JSON object per line.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range f.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpFile writes the retained events as JSONL to path.
func (f *FlightRecorder) DumpFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(out); err != nil {
		out.Close()
		return fmt.Errorf("write flight record: %w", err)
	}
	return out.Close()
}
