package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	// Every method on every nil instrument must be callable and allocation-free.
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
		o *Observer
		x *Tracer
	)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(5)
		_ = c.Value()
		g.Set(3)
		g.Add(-1)
		_ = g.Value()
		h.Observe(42)
		_ = h.Count()
		_ = r.Counter("x")
		_ = r.Gauge("x")
		_ = r.Histogram("x", DurationBuckets)
		_ = o.Reg()
		_ = o.Trace()
		x.Complete(1, "c", "n", time.Time{}, 0, 0)
		x.Instant(1, "c", "n", "")
		x.NameThread(1, "w")
	})
	if allocs != 0 {
		t.Fatalf("nil instruments allocated: %v allocs/op", allocs)
	}
	em := ExploreInstruments(nil)
	em.Started.Inc()
	em.WorkerIdle.Add(1234)
	cm := CacheInstruments(nil)
	cm.Probes.Inc()
	pm := PersistInstruments(nil, "px86")
	pm.Stores.Inc()
	wm := WorldInstruments(nil)
	wm.ScheduleSteps.Inc()
	km := WorkerInstruments(nil, 1)
	km.BusyNanos.Add(7)
	dm := DispatchInstruments(nil)
	dm.LeasesGranted.Inc()
	dm.LeasesExpired.Inc()
	dm.Redeliveries.Inc()
	dm.BackoffNanos.Add(1_000_000)
	dm.WorkerRestarts.Inc()
	dm.PoisonUnits.Inc()
	dm.WorkersLive.Set(4)
	dm.UnitNanos.Observe(99)
}

func TestEmptyObserverDisabled(t *testing.T) {
	o := &Observer{}
	if o.Reg() != nil || o.Trace() != nil {
		t.Fatal("empty observer must hand out nil sinks")
	}
}

func TestRegistryInstrumentsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("explore.executions_started")
	if c2 := r.Counter("explore.executions_started"); c2 != c {
		t.Fatal("counter lookup must be stable")
	}
	c.Inc()
	c.Add(2)
	r.Gauge("explore.frontier_depth").Set(17)
	h := r.Histogram("explore.execution_ns", DurationBuckets)
	h.Observe(500)           // bucket 0 (<=1µs)
	h.Observe(2_000_000_000) // overflow
	snap := r.Snapshot()
	if got := snap.Counters["explore.executions_started"]; got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := snap.Gauges["explore.frontier_depth"]; got != 17 {
		t.Fatalf("gauge = %d, want 17", got)
	}
	hs := snap.Histograms["explore.execution_ns"]
	if hs.Count != 2 || hs.Sum != 2_000_000_500 {
		t.Fatalf("histogram count/sum = %d/%d", hs.Count, hs.Sum)
	}
	if hs.Counts[0] != 1 || hs.Counts[len(hs.Counts)-1] != 1 {
		t.Fatalf("histogram buckets = %v", hs.Counts)
	}
	// Snapshot must serialize cleanly: worker processes ship it as JSON.
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["explore.executions_started"] != 3 {
		t.Fatal("snapshot did not round-trip through JSON")
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
}

func TestTracerChrome(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(0, "campaign")
	tr.NameThread(1, "worker-1")
	start := tr.Now()
	tr.Complete(1, "explore", "execution", start, 1500*time.Microsecond, 7)
	tr.Complete(0, "explore", "checkpoint-write", start, 10*time.Microsecond, -1)
	tr.Instant(0, "explore", "stop", "deadline")

	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var env struct {
		TraceEvents []SpanEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	// 2 metadata + 3 events.
	if len(env.TraceEvents) != 5 {
		t.Fatalf("chrome events = %d, want 5", len(env.TraceEvents))
	}
	if env.TraceEvents[0].Ph != "M" || env.TraceEvents[0].Args.Name != "campaign" {
		t.Fatalf("first event should be campaign thread_name metadata, got %+v", env.TraceEvents[0])
	}
	var exec *SpanEvent
	for i := range env.TraceEvents {
		if env.TraceEvents[i].Name == "execution" {
			exec = &env.TraceEvents[i]
		}
	}
	if exec == nil || exec.Ph != "X" || exec.Dur != 1500 || exec.Args.Exec != 7 {
		t.Fatalf("execution span malformed: %+v", exec)
	}
}

func TestProvenanceNarrative(t *testing.T) {
	p := &Provenance{
		Kind: "read-too-old",
		Events: []ProvEvent{
			{Role: "racing-store", Op: "store", Loc: "x = 1", Thread: 0, SubExec: 0, Addr: "x", Value: 1, Note: "racing store"},
			{Role: "crash", Thread: 0, SubExec: 0, Note: "crash ended sub-execution 0"},
			{Role: "post-crash-read", Op: "load", Loc: "r = x", Thread: 0, SubExec: 1, Addr: "x", Note: "observed stale value"},
		},
	}
	n := p.Narrative()
	for _, want := range []string{"provenance (read-too-old)", "1. [sub-exec 0, thread 0] store x at \"x = 1\"", "racing store", "3."} {
		if !strings.Contains(n, want) {
			t.Fatalf("narrative missing %q:\n%s", want, n)
		}
	}
	var nilProv *Provenance
	if !nilProv.Empty() || nilProv.Narrative() != "" {
		t.Fatal("nil provenance must be empty")
	}
}

func TestProgressTicker(t *testing.T) {
	r := NewRegistry()
	r.Counter("explore.executions_completed").Add(50)
	r.Counter("statecache.probes").Add(10)
	r.Counter("statecache.hits").Add(4)
	r.Counter("persist.px86.stores").Add(123)
	var buf syncBuffer
	stop := StartProgress(ProgressConfig{Out: &buf, Registry: r, Interval: 10 * time.Millisecond, Total: 100})
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "progress: 50 execs") {
		t.Fatalf("missing exec count:\n%s", out)
	}
	if !strings.Contains(out, "cache 40%") {
		t.Fatalf("missing cache ratio:\n%s", out)
	}
	if !strings.Contains(out, "px86[st=123") {
		t.Fatalf("missing per-model counters:\n%s", out)
	}
	if !strings.Contains(out, "— done in") {
		t.Fatalf("missing final line:\n%s", out)
	}
	// Nil config is a no-op.
	StartProgress(ProgressConfig{})()
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("explore.executions_started").Add(9)
	srv, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string, status int) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != status {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics", http.StatusOK)
	if !strings.Contains(metrics, "psan_explore_executions_started_total 9") {
		t.Fatalf("/metrics missing OpenMetrics counter sample:\n%.400s", metrics)
	}
	if !strings.HasSuffix(metrics, "# EOF\n") {
		t.Fatalf("/metrics exposition not terminated with # EOF:\n%.400s", metrics)
	}
	// OpenMetrics is the only format served.
	for _, gone := range []string{"/metrics.json", "/debug/vars"} {
		get(gone, http.StatusNotFound)
	}
}
