package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// CLI is one command-line tool's telemetry: the -metrics-addr,
// -progress and -trace-out flags, and the sinks they start.
type CLI struct {
	name        string
	metricsAddr string
	progress    time.Duration
	traceOut    string

	srv          *MetricsServer
	stopProgress func()
	tracer       *Tracer
	start        time.Time
}

// RegisterCLIFlags registers -metrics-addr and -progress on fs, and
// -trace-out when trace is set, for the tool called name.
func RegisterCLIFlags(fs *flag.FlagSet, name string, trace bool) *CLI {
	c := &CLI{name: name}
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live metrics over HTTP on this address as an OpenMetrics text exposition at /metrics")
	fs.DurationVar(&c.progress, "progress", 0, "print live progress to stderr at this interval (0: off)")
	if trace {
		fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace_event timeline of the run to this file on exit; spans of isolated worker processes are merged in")
	}
	return c
}

// Start builds the observer the flags ask for, serves -metrics-addr
// (announcing its address on out) and starts the -progress ticker on
// out, with total executions as the ETA budget (0: unknown). The
// observer is nil when no flag is set, so an unobserved run keeps its
// instrumentation-free hot path. A successful Start needs a Finish.
func (c *CLI) Start(out io.Writer, total int64) (*Observer, error) {
	var o *Observer
	if c.metricsAddr != "" || c.progress > 0 {
		o = &Observer{Metrics: NewRegistry()}
	}
	if c.traceOut != "" {
		if o == nil {
			o = &Observer{}
		}
		c.tracer = NewTracer()
		c.tracer.NameThread(0, c.name)
		c.start = c.tracer.Now()
		o.Tracer = c.tracer
	}
	if c.metricsAddr != "" {
		srv, err := ServeMetrics(c.metricsAddr, o.Metrics)
		if err != nil {
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		c.srv = srv
		fmt.Fprintf(out, "%s: metrics at http://%s/metrics\n", c.name, srv.Addr)
	}
	if c.progress > 0 {
		c.stopProgress = StartProgress(ProgressConfig{
			Out: out, Registry: o.Metrics, Interval: c.progress, Total: total,
		})
	}
	return o, nil
}

// Finish stops the progress ticker after its final line, closes the
// metrics server, and writes the -trace-out file with one "run" span
// on the tool's timeline covering Start to Finish, so the file holds a
// span even when the tool ran no campaign.
func (c *CLI) Finish() error {
	if c.stopProgress != nil {
		c.stopProgress()
	}
	c.srv.Close()
	if c.tracer == nil {
		return nil
	}
	c.tracer.CompleteSince(0, c.name, "run", c.start, -1)
	if err := c.tracer.WriteFiles(c.traceOut); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	return nil
}

// MetricsServer is a minimal HTTP server exposing a registry.
type MetricsServer struct {
	// Addr is the bound address (useful with ":0" listeners).
	Addr string
	srv  *http.Server
}

// OpenMetricsContentType is the Content-Type of the /metrics endpoint.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ServeMetrics serves r at addr as the OpenMetrics text exposition at
// /metrics (HELP/TYPE metadata, deterministic name mapping; see
// catalog.go). A dedicated mux keeps this off http.DefaultServeMux. The
// server runs until Close. Returns an error if the listener cannot bind.
func ServeMetrics(addr string, r *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", OpenMetricsContentType)
		WriteOpenMetrics(w, r.Snapshot())
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &MetricsServer{Addr: ln.Addr().String(), srv: srv}, nil
}

// Close shuts the server down. Safe on a nil server.
func (m *MetricsServer) Close() error {
	if m == nil {
		return nil
	}
	return m.srv.Close()
}
