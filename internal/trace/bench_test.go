package trace

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/memmodel"
)

// BenchmarkTraceReset measures Trace.Reset on a trace whose executions
// touched 64 or 4096 distinct words: one committed store and one
// initial store per word, in each of two sub-executions. Reset must not
// scale with the word count — the per-word indexes keep their pages
// across executions and invalidate them by generation — so ns/op stays
// flat across the two sizes.
func BenchmarkTraceReset(b *testing.B) {
	for _, words := range []int{64, 4096} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			tr := New()
			loc := tr.Intern("bench")
			for sub := 0; sub < 2; sub++ {
				for w := 0; w < words; w++ {
					a := memmodel.Addr(0x100000 + 8*w)
					tr.Initial(a)
					st := tr.StoreIssue(memmodel.ThreadID(w%4), a, 1, memmodel.OpStore, loc)
					tr.StoreCommit(st)
				}
				tr.Crash()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Reset()
			}
		})
	}
}

// BenchmarkTraceNext measures next(st, e) of Figure 10, the
// per-candidate lookup inside the checker's LOAD-PREV update: four
// threads store to 64 words in each of three sub-executions, and Next
// collects the first later store per thread to the read word across
// them.
func BenchmarkTraceNext(b *testing.B) {
	tr := New()
	loc := tr.Intern("bench")
	const words = 64
	var first []*Store
	for sub := 0; sub < 3; sub++ {
		for round := 0; round < 3; round++ {
			for w := 0; w < words; w++ {
				a := memmodel.Addr(0x100000 + 8*w)
				st := tr.StoreIssue(memmodel.ThreadID((w+round)%4), a, memmodel.Value(round), memmodel.OpStore, loc)
				tr.StoreCommit(st)
				if sub == 0 && round == 0 {
					first = append(first, st)
				}
			}
		}
		tr.Crash()
	}
	ecur := tr.NumCrashes()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(tr.Next(first[i%words], ecur))
	}
	if n == 0 && b.N > 0 {
		b.Fatal("Next found no later stores")
	}
}

// appendWords is the word count of the trace-append layer workload.
const appendWords = 64

// appendOp runs operation i of the trace-append layer workload: thread
// i%4 issues and commits a store to word i%64, then loads that word's
// newest store (which joins another thread's clock vector into its
// own). Under a window, every 64 operations retire with the newest
// store per word as the only roots.
func appendOp(tr *Trace, i int, loc LocID) {
	t := memmodel.ThreadID(i % 4)
	a := memmodel.Addr(0x100000 + 8*((i*7)%appendWords))
	st := tr.StoreIssue(t, a, memmodel.Value(i), memmodel.OpStore, loc)
	tr.StoreCommit(st)
	r := memmodel.Addr(0x100000 + 8*((i*5)%appendWords))
	if rf := tr.Current().LastTo(r); rf != nil {
		tr.Load(memmodel.ThreadID((i+1)%4), r, rf, memmodel.OpLoad, loc)
	}
	if tr.WindowSize() > 0 && i%64 == 63 {
		sub := tr.Current()
		tr.Retire(func(pin func(*Store)) {
			for w := 0; w < appendWords; w++ {
				pin(sub.LastTo(memmodel.Addr(0x100000 + 8*w)))
			}
		})
	}
}

// appendExecOps is the length of one execution of the append workload;
// the trace is Reset between executions.
const appendExecOps = 1 << 12

// BenchmarkTraceAppend measures the trace-append layer: StoreIssue,
// StoreCommit and Load (clock-vector Inc and Join included), with the
// periodic retirement a 64-op window runs. Executions of 4096 ops are
// separated by Reset, so both modes reuse their arenas; allocs/op is 0
// in both once warmed up.
func BenchmarkTraceAppend(b *testing.B) {
	for _, window := range []int{0, 64} {
		name := "unbounded"
		if window > 0 {
			name = fmt.Sprintf("window=%d", window)
		}
		b.Run(name, func(b *testing.B) {
			tr := New()
			tr.SetWindow(window)
			loc := tr.Intern("bench")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%appendExecOps == 0 {
					tr.Reset()
				}
				appendOp(tr, i, loc)
			}
		})
	}
}

// TestTraceAppendSteadyStateAllocs: once a trace has run one execution
// of the append workload, further executions allocate nothing, with or
// without a window — records come from the arenas (and, windowed, from
// their free lists), clock vectors of four threads are inline, and
// every index keeps its backing arrays across Reset.
func TestTraceAppendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation perturbs allocation counts")
	}
	for _, window := range []int{0, 64} {
		tr := New()
		tr.SetWindow(window)
		loc := tr.Intern("bench")
		exec := func() {
			tr.Reset()
			for i := 0; i < appendExecOps; i++ {
				appendOp(tr, i, loc)
			}
		}
		exec()
		if n := testing.AllocsPerRun(5, exec); n != 0 {
			t.Errorf("window %d: %v allocations per warmed-up %d-op execution, want 0", window, n, appendExecOps)
		}
	}
}

// BenchmarkTraceRetire measures the retirement layer on its own: four
// threads each issue, commit and load back a store, and the newest store
// per word is a root, as the crash image's newest entry is. Sweeps run
// at the machine's cadence — every 64 operations under a 64-op window —
// and each first moves the sticky pins of the words written since the
// last one to their newest store, as Image.Retire does. append-only
// writes a fresh word per operation, which the next thread loads
// (joining the store's clock vector into its own), so every store stays
// pinned and the live set grows, as in the Redis log. overwrite cycles
// through 64 words, each thread loading its own stores, so all but the
// newest per word and each thread's last store retire. Each runs
// executions of two lengths (the trace is Reset between executions), so
// a sweep cost that grows with the live set shows as a gap between them.
// sweep-ns/op is the time spent retiring (pins included) per operation.
func BenchmarkTraceRetire(b *testing.B) {
	for _, execOps := range []int{1 << 14, 1 << 17} {
		for _, tc := range []struct {
			name  string
			words int
		}{{"append-only", execOps}, {"overwrite", 64}} {
			b.Run(fmt.Sprintf("%s/exec=%d", tc.name, execOps), func(b *testing.B) {
				benchRetire(b, execOps, tc.words)
			})
		}
	}
}

func benchRetire(b *testing.B, execOps, words int) {
	tr := New()
	tr.SetWindow(64)
	loc := tr.Intern("bench")
	newest := make([]*Store, words)
	pinned := make([]*Store, words)
	var touched []int
	var sweep time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%execOps == 0 {
			tr.Reset()
			clear(newest)
			clear(pinned)
			touched = touched[:0]
		}
		t := memmodel.ThreadID(i % 4)
		w := i % words
		a := memmodel.Addr(0x100000 + 8*w)
		st := tr.StoreIssue(t, a, memmodel.Value(i), memmodel.OpStore, loc)
		tr.StoreCommit(st)
		if newest[w] == pinned[w] {
			touched = append(touched, w)
		}
		newest[w] = st
		reader := t
		if words == execOps {
			reader = (t + 1) % 4
		}
		tr.Load(reader, a, st, memmodel.OpLoad, loc)
		if i%64 == 63 {
			start := time.Now()
			for _, w := range touched {
				tr.Pin(newest[w])
				if old := pinned[w]; old != nil {
					tr.Unpin(old)
				}
				pinned[w] = newest[w]
			}
			touched = touched[:0]
			tr.Retire()
			sweep += time.Since(start)
		}
	}
	b.ReportMetric(float64(sweep.Nanoseconds())/float64(b.N), "sweep-ns/op")
}
