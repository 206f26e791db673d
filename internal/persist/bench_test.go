package persist_test

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

// BenchmarkAppendSealedCandidates times one post-crash candidate walk of
// a word through a sealed epoch of its line:
//
//   - short: an mc-like epoch of six stores to three words of the line,
//     read through the word stored twice;
//   - hotline: a line with 1,000 stores, 998 of them to one word, read
//     through another word that holds the other two.
//
// Both reads yield two candidates, so the cases differ only in how much
// of the line's history a walk has to pass over.
//
// A real machine reaches the walk only for words not yet written in the
// current sub-execution, so the benchmark drives the image directly.
func BenchmarkAppendSealedCandidates(b *testing.B) {
	const line = memmodel.Addr(0x100000)
	hot, cold := line, line+memmodel.WordSize
	cases := []struct {
		name   string
		stores []memmodel.Addr
		read   memmodel.Addr
	}{
		{"short", []memmodel.Addr{hot, cold, hot + 16, cold, hot, hot + 16}, cold},
		{"hotline", hotline(hot, cold), cold},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tr := trace.New()
			im := persist.NewImage("bench", tr)
			for i, a := range c.stores {
				im.Commit(tr.StoreIssue(0, a, memmodel.Value(i+1), memmodel.OpStore, trace.NoLoc))
			}
			im.Seal()
			cands, _ := im.AppendSealedCandidates(nil, c.read)
			if len(cands) == 0 {
				b.Fatal("no candidates")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cands, _ = im.AppendSealedCandidates(cands[:0], c.read)
			}
		})
	}
}

// hotline returns 1,000 store addresses: the 300th and 700th go to
// cold, the rest to hot.
func hotline(hot, cold memmodel.Addr) []memmodel.Addr {
	out := make([]memmodel.Addr, 1000)
	for i := range out {
		out[i] = hot
		if i == 299 || i == 699 {
			out[i] = cold
		}
	}
	return out
}
