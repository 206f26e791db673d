package persist_test

import (
	"math/rand"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

// streamWords spans the address ranges the simulator meets in practice
// — the root word (0x1000), .pm statics (0x10000), the bump heap
// (0x100000, including a 64-word page boundary at 0x100200), the
// PMDK/Redis pools (0x800000, 0xA00000) — plus the extremes of the
// 64-bit space a fuzzed program can reach. Several words share a cache
// line so crash images have multi-word histories.
var streamWords = []memmodel.Addr{
	0x1000, 0x1008, 0x1038,
	0x10000, 0x10040,
	0x100000, 0x100008, 0x1001f8, 0x100200,
	0x800000, 0xa00008,
	0x0, 0x8000000000000000, 0xfffffffffffffff8,
}

// streamThreads are sparse thread IDs, as recovery and spawned threads
// produce them.
var streamThreads = []memmodel.ThreadID{0, 1, 7, 42}

// streamHooks lets a test observe a stream. Every hook may be nil.
type streamHooks struct {
	// step runs after every operation.
	step func()
	// loaded runs between LoadCandidates and the load of word a that
	// consumes them, with each model's own candidate set.
	loaded func(a memmodel.Addr, cands [][]persist.Candidate)
	// crashed runs after every crash, before the stream continues.
	crashed func()
	// restored runs after every snapshot restore; again reports whether
	// the same snapshot had been restored before.
	restored func(again bool)
}

// runStream drives every model in ms through the same seeded operation
// stream: stores, RMWs, loads with a seeded candidate pick, flushes,
// flush-opts, fences, single-entry drains, crashes, crash-boundary
// snapshots restored (possibly repeatedly, with mutation in between)
// together with trace marks, and whole-machine resets. The stream ends
// with a crash. The rng draws depend only on the seed, so models with
// different candidate counts (strict) stay aligned with the others.
func runStream(ms []persist.Model, seed int64, n int, h streamHooks) {
	rng := rand.New(rand.NewSource(seed))
	snaps := make([]*persist.ImageSnapshot, len(ms))
	marks := make([]trace.TraceMark, len(ms))
	haveSnap, restoredSnap := false, false
	cands := make([][]persist.Candidate, len(ms))
	pickCands := func(t memmodel.ThreadID, a memmodel.Addr) []persist.Candidate {
		r := rng.Intn(1 << 20)
		out := make([]persist.Candidate, len(ms))
		for i, m := range ms {
			cands[i] = append(cands[i][:0], m.LoadCandidates(t, a)...)
		}
		if h.loaded != nil {
			h.loaded(a, cands)
		}
		for i := range ms {
			out[i] = cands[i][r%len(cands[i])]
		}
		return out
	}
	crash := func() {
		for _, m := range ms {
			m.Crash()
		}
		if h.crashed != nil {
			h.crashed()
		}
		if rng.Intn(3) == 0 {
			for i, m := range ms {
				snaps[i] = m.Snapshot()
				marks[i] = m.Trace().Mark()
			}
			haveSnap, restoredSnap = true, false
		}
	}
	for i := 0; i < n; i++ {
		t := streamThreads[rng.Intn(len(streamThreads))]
		a := streamWords[rng.Intn(len(streamWords))]
		switch op := rng.Intn(24); {
		case op < 7:
			v := memmodel.Value(rng.Intn(1000) + 1)
			for _, m := range ms {
				m.Store(t, a, v, m.Intern("stream.store"))
			}
		case op < 10:
			pick := pickCands(t, a)
			for j, m := range ms {
				m.Load(t, a, pick[j], m.Intern("stream.load"))
			}
		case op < 11:
			exp := memmodel.Value(rng.Intn(4))
			nv := memmodel.Value(rng.Intn(1000) + 1)
			pick := pickCands(t, a)
			for j, m := range ms {
				m.CAS(t, a, pick[j], exp, nv, m.Intern("stream.cas"))
			}
		case op < 12:
			pick := pickCands(t, a)
			for j, m := range ms {
				m.FAA(t, a, pick[j], 1, m.Intern("stream.faa"))
			}
		case op < 14:
			for _, m := range ms {
				m.Flush(t, a, m.Intern("stream.flush"))
			}
		case op < 16:
			for _, m := range ms {
				m.FlushOpt(t, a, m.Intern("stream.flushopt"))
			}
		case op < 17:
			for _, m := range ms {
				m.SFence(t, m.Intern("stream.sfence"))
			}
		case op < 18:
			for _, m := range ms {
				m.MFence(t, m.Intern("stream.mfence"))
			}
		case op < 21:
			for _, m := range ms {
				m.DrainOne(t)
			}
		case op < 22:
			crash()
		case op < 23:
			if haveSnap {
				for j, m := range ms {
					m.Restore(snaps[j])
					m.Trace().Rewind(marks[j])
				}
				if h.restored != nil {
					h.restored(restoredSnap)
				}
				restoredSnap = true
			}
		default:
			if rng.Intn(4) == 0 {
				for _, m := range ms {
					m.Reset()
				}
				haveSnap = false
			}
		}
		if h.step != nil {
			h.step()
		}
	}
	crash()
	if h.step != nil {
		h.step()
	}
}
