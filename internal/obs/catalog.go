package obs

import (
	"sort"
	"strings"
)

// The exported-metric catalog: the deterministic mapping from the
// dotted instrument names of instruments.go to OpenMetrics metric
// families, plus the HELP/TYPE metadata the /metrics exposition and the
// README reference table are generated from.
//
// Mapping rules (ResolveName):
//
//	persist.<model>.<op>  -> psan_persist_<op>{model="<model>"}
//	pool.worker<N>.<f>    -> psan_pool_worker_<f>{worker="<N>"}
//	anything else         -> psan_ + name with '.' -> '_'
//
// The mapping is injective over the catalog: every dotted name resolves
// to exactly one (family, label set), and resolving the same name twice
// yields byte-identical output, so scrapes diff cleanly across runs.

// MetricDef describes one OpenMetrics metric family.
type MetricDef struct {
	Family string   // e.g. "psan_explore_executions_started"
	Type   string   // "counter", "gauge", or "histogram"
	Labels []string // label keys, e.g. ["model"]; nil for none
	Help   string
}

// Label is one resolved label pair.
type Label struct {
	Key, Value string
}

// ResolveName maps a dotted instrument name to its OpenMetrics family
// and labels per the catalog rules above.
func ResolveName(name string) (string, []Label) {
	if rest, ok := strings.CutPrefix(name, "persist."); ok {
		if model, op, ok := strings.Cut(rest, "."); ok {
			return "psan_persist_" + sanitizeMetric(op), []Label{{"model", model}}
		}
	}
	if rest, ok := strings.CutPrefix(name, "pool.worker"); ok {
		if i := strings.IndexByte(rest, '.'); i > 0 && isDigits(rest[:i]) {
			return "psan_pool_worker_" + sanitizeMetric(rest[i+1:]), []Label{{"worker", rest[:i]}}
		}
	}
	return "psan_" + sanitizeMetric(name), nil
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// sanitizeMetric rewrites a dotted-name fragment into the OpenMetrics
// name alphabet: dots become underscores, anything outside
// [a-zA-Z0-9_] becomes '_'.
func sanitizeMetric(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// catalog is the authoritative family list. Keep it in sync with
// instruments.go: TestCatalogCoversInstruments walks a fully-resolved
// registry and fails on any instrument whose family is missing here,
// and the README "Exported metrics" table is checked against it.
var catalog = []MetricDef{
	{"psan_explore_executions_started", "counter", nil, "Executions started by the exploration engines."},
	{"psan_explore_executions_completed", "counter", nil, "Executions that ran to completion."},
	{"psan_explore_executions_aborted", "counter", nil, "Executions aborted on a deadline, cancellation, or op budget."},
	{"psan_explore_executions_quarantined", "counter", nil, "Executions quarantined after a contained panic."},
	{"psan_explore_executions_pruned", "counter", nil, "Model-check executions pruned by the state cache."},
	{"psan_explore_snapshots_taken", "counter", nil, "Crash-boundary world snapshots taken."},
	{"psan_explore_snapshots_restored", "counter", nil, "Executions resumed from a world snapshot."},
	{"psan_explore_worker_idle_ns", "counter", nil, "Aggregate worker idle time in nanoseconds."},
	{"psan_explore_stops_deadline", "counter", nil, "Campaign stops latched by the wall-clock deadline."},
	{"psan_explore_stops_canceled", "counter", nil, "Campaign stops latched by context cancellation."},
	{"psan_explore_frontier_depth", "gauge", nil, "Unexplored frontier remaining (random mode: executions left)."},
	{"psan_explore_execution_ns", "histogram", nil, "Per-execution wall time in nanoseconds."},

	{"psan_statecache_probes", "counter", nil, "Post-crash state-cache lookups."},
	{"psan_statecache_hits", "counter", nil, "State-cache hits (subtree already explored)."},
	{"psan_statecache_misses", "counter", nil, "State-cache misses."},
	{"psan_statecache_misses_new_image", "counter", nil, "Misses whose persistence fingerprint was never seen."},
	{"psan_statecache_misses_new_heap", "counter", nil, "Misses whose image was seen with a different heap size."},
	{"psan_statecache_entries", "gauge", nil, "Live state-cache entries."},

	{"psan_persist_stores", "counter", []string{"model"}, "Persistent stores issued, per persistency-model backend."},
	{"psan_persist_flushes", "counter", []string{"model"}, "Cache-line flushes (clflush) per backend."},
	{"psan_persist_flushopts", "counter", []string{"model"}, "Optimized flushes (clflushopt/clwb) per backend."},
	{"psan_persist_fences", "counter", []string{"model"}, "Store fences (sfence + mfence) per backend."},
	{"psan_persist_drains", "counter", []string{"model"}, "Scheduler-chosen store-buffer commits per backend."},
	{"psan_persist_crashes", "counter", []string{"model"}, "Simulated crashes per backend."},
	{"psan_persist_candidates_resolved", "counter", []string{"model"}, "Post-crash read candidates resolved per backend."},

	{"psan_pmem_schedule_steps", "counter", nil, "Scheduled memory operations in the simulated machine."},
	{"psan_interp_steps", "counter", nil, "Interpreted statements executed."},
	{"psan_pmem_retirements", "counter", nil, "Completed bounded-window retirement sweeps."},
	{"psan_pmem_retired_stores", "counter", nil, "Store records released by retirement sweeps."},
	{"psan_pmem_retired_events", "counter", nil, "Event records released by retirement sweeps."},
	{"psan_pmem_window_retained", "gauge", nil, "Event-log occupancy after the last retirement sweep."},
	{"psan_pmem_pinned_roots", "gauge", nil, "Pin-closure size (stores kept live) of the last retirement sweep."},
	{"psan_pmem_retire_sweep_ns", "histogram", nil, "Wall time of each bounded-window retirement sweep in nanoseconds."},

	{"psan_dispatch_units_dispatched", "counter", nil, "Work-unit deliveries to worker processes, redeliveries included."},
	{"psan_dispatch_units_merged", "counter", nil, "Work-unit results assembled into the campaign stream."},
	{"psan_dispatch_leases_granted", "counter", nil, "Unit leases granted."},
	{"psan_dispatch_leases_expired", "counter", nil, "Leases expired after heartbeat silence."},
	{"psan_dispatch_redeliveries", "counter", nil, "Failed or expired units re-enqueued for redelivery."},
	{"psan_dispatch_backoff_ns", "counter", nil, "Aggregate redelivery backoff delay in nanoseconds."},
	{"psan_dispatch_worker_restarts", "counter", nil, "Replacement worker processes spawned."},
	{"psan_dispatch_poison_units", "counter", nil, "Units quarantined as poison past the retry budget."},
	{"psan_dispatch_degraded", "counter", nil, "Fallbacks to in-process (degraded) execution."},
	{"psan_dispatch_workers_live", "gauge", nil, "Live worker processes."},
	{"psan_dispatch_unit_ns", "histogram", nil, "Unit delivery-to-merge latency in nanoseconds."},

	{"psan_pool_worker_busy_ns", "counter", []string{"worker"}, "Per-pool-worker busy time in nanoseconds."},
	{"psan_pool_worker_idle_ns", "counter", []string{"worker"}, "Per-pool-worker idle time in nanoseconds."},
	{"psan_pool_worker_dispatches", "counter", []string{"worker"}, "Per-pool-worker execution dispatches."},
}

// Catalog returns the exported-metric catalog sorted by family name.
func Catalog() []MetricDef {
	out := make([]MetricDef, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// CatalogMarkdown renders the catalog as the markdown table embedded
// in README.md under "Exported metrics". TestReadmeMetricsTable
// regenerates it and fails on drift, so the README row set is always
// exactly the exported family set.
func CatalogMarkdown() string {
	var b strings.Builder
	b.WriteString("| Metric | Type | Labels | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range Catalog() {
		labels := ""
		if len(d.Labels) > 0 {
			labels = "`" + strings.Join(d.Labels, "`, `") + "`"
		}
		b.WriteString("| `" + d.Family + "` | " + d.Type + " | " + labels + " | " + d.Help + " |\n")
	}
	return b.String()
}

// catalogHelp returns the family's catalog entry, if any.
func catalogHelp(family string) (MetricDef, bool) {
	for _, d := range catalog {
		if d.Family == family {
			return d, true
		}
	}
	return MetricDef{}, false
}
