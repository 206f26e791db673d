// Package obs is the observability layer for exploration campaigns: a
// lock-cheap metrics registry (atomic counters, gauges, fixed-bucket
// histograms) served as an OpenMetrics exposition, a span-based campaign
// tracer written as a Chrome trace_event file, a flight recorder,
// structured violation provenance, a live progress ticker, and the CLI
// helper that sets these up from the command-line flags of every tool.
//
// Every instrument is a nil-safe no-op: methods on a nil *Counter, *Gauge,
// *Histogram, *Registry, *Tracer, or *Observer do nothing and allocate
// nothing. Code under instrumentation therefore calls instruments
// unconditionally; when observability is off the calls reduce to a nil check,
// keeping the allocation-free hot path byte-identical.
package obs

import "sync/atomic"

// Observer bundles the sinks a campaign may carry. A nil Observer — or one
// with nil fields — disables the corresponding subsystem.
type Observer struct {
	// Metrics receives counter/gauge/histogram updates when non-nil.
	Metrics *Registry
	// Tracer receives span events when non-nil.
	Tracer *Tracer
	// Flight receives flight-recorder events when non-nil.
	Flight *FlightRecorder
}

// Reg returns the metrics registry, or nil. Safe on a nil receiver.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Trace returns the tracer, or nil. Safe on a nil receiver.
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Recorder returns the flight recorder, or nil. Safe on a nil receiver.
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated instantaneous value. The zero value is ready
// to use; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations (typically
// nanoseconds). Bucket i counts observations <= Bounds[i]; the final implicit
// bucket counts the overflow. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
	n      atomic.Int64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// DurationBuckets is the default bucket layout for nanosecond timings:
// 1µs, 10µs, 100µs, 1ms, 10ms, 100ms, 1s (+overflow).
var DurationBuckets = []int64{
	1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// snapshot returns a point-in-time copy of the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
