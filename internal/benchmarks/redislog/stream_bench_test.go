package redislog

import (
	"runtime/metrics"
	"testing"

	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// BenchmarkWindowedStreamGC measures what the garbage collector costs a
// long windowed execution. One op is one windowed redislog stream, the
// shape of perfbench's redis-stream workload: the server serves a
// 2,000-request prefix, crashes at a random fence, recovers and serves
// 25,000 more requests, under a 64-operation retirement window. Beside
// the time per stream it reports, from runtime/metrics, the collector's
// CPU time per stream (gc-cpu-ms/op) and the heap objects at the end of
// the run (heap-objects): record memory the collector scans shows up in
// the first, per-record heap objects in the second.
func BenchmarkWindowedStreamGC(b *testing.B) {
	prefix := workload.Config{Seed: 1, Ops: 2_000, Keys: 4096, ZipfS: 1.2, ReadPct: 50, Threads: 2}
	stream := prefix
	stream.Seed, stream.Ops = 2, 25_000
	r := New(bench.Buggy)
	prog := &explore.FuncProgram{
		ProgName: "RedisLog-stream",
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				r.Init(w.Thread(0), prefix.Keys)
				workload.Drive(w, prefix, r)
			},
			func(w *pmem.World) {
				r.Recover(w.Thread(0))
				workload.Drive(w, stream, r)
			},
		},
	}
	opt := explore.Options{
		Mode: explore.Random, Executions: 1, Seed: 1, Workers: 1,
		Model:   persist.Config{Window: 64},
		OpLimit: (prefix.Ops+stream.Ops)*64 + 4096,
	}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/objects:objects"},
	}
	explore.Run(prog, opt) // warm-up
	metrics.Read(samples)
	gc0 := samples[0].Value.Float64()
	b.ResetTimer()
	for range b.N {
		if res := explore.Run(prog, opt); res.Executions != 1 {
			b.Fatalf("stream ran %d executions, want 1", res.Executions)
		}
	}
	b.StopTimer()
	metrics.Read(samples)
	b.ReportMetric((samples[0].Value.Float64()-gc0)*1e3/float64(b.N), "gc-cpu-ms/op")
	b.ReportMetric(float64(samples[1].Value.Uint64()), "heap-objects")
}
