package explore_test

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
)

// BenchmarkStateCache measures model checking on FAST_FAIR with the
// post-crash state cache on and off: the cached run prunes sub-DFS
// subtrees whose surviving persistent image was already explored.
func BenchmarkStateCache(b *testing.B) {
	bm := benchmarks.ByName("FAST_FAIR")
	if bm == nil {
		b.Fatal("FAST_FAIR not registered")
	}
	const cap = 400
	opt := explore.Options{Mode: explore.ModelCheck, Executions: cap, Workers: 1}
	for _, cfg := range []struct {
		name string
		opt  explore.Options
	}{{"on", opt}, {"off", explore.WithoutStateCache(opt)}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var hits, misses int
			for i := 0; i < b.N; i++ {
				res := explore.Run(bm.Build(bench.Buggy), cfg.opt)
				hits, misses = res.CacheHits, res.CacheMisses
			}
			b.ReportMetric(float64(hits), "cache-hits")
			b.ReportMetric(float64(misses), "cache-misses")
		})
	}
}
