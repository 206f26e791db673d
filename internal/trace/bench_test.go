package trace

import (
	"fmt"
	"testing"

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
