package persist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memmodel"
	"repro/internal/trace"
)

// randomPreCrash drives a machine through a pseudo-random pre-crash
// program derived from the seed: stores, flushes, flushopts, fences,
// and RMWs over a handful of words spread across two cache lines.
func randomPreCrash(m *machine, seed int64, alwaysFlush bool) {
	rng := rand.New(rand.NewSource(seed))
	words := []memmodel.Addr{0x1000, 0x1008, 0x1040, 0x1048}
	n := 5 + rng.Intn(20)
	for i := 0; i < n; i++ {
		t := memmodel.ThreadID(rng.Intn(2))
		a := words[rng.Intn(len(words))]
		switch rng.Intn(6) {
		case 0, 1, 2:
			m.Store(t, a, memmodel.Value(rng.Intn(100)+1), m.Intern("store"))
			if alwaysFlush {
				m.Flush(t, a, m.Intern("flush-after-store"))
			}
		case 3:
			m.Flush(t, a, m.Intern("flush"))
		case 4:
			m.FlushOpt(t, a, m.Intern("flushopt"))
			if rng.Intn(2) == 0 {
				m.SFence(t, m.Intern("sfence"))
			}
		case 5:
			c := m.LoadCandidates(t, a)
			m.FAA(t, a, c[0], 1, m.Intern("faa"))
			if alwaysFlush {
				m.Flush(t, a, m.Intern("flush-after-faa"))
			}
		}
	}
}

// eachModelProperty runs a quick-check property once per backend as a
// subtest; the property builds its machines with mk.
func eachModelProperty(t *testing.T, f func(t *testing.T, mk func() *machine)) {
	for _, name := range allModels {
		t.Run(name, func(t *testing.T) {
			f(t, func() *machine { return MustNew(Config{Name: name}).(*machine) })
		})
	}
}

// Property: after a crash, every line's readable image is a TSO-order
// prefix — reading word w fresh pins every same-line word written
// earlier to a value at least as new as its last pre-w store.
func TestPropertySameLinePrefix(t *testing.T) {
	eachModelProperty(t, func(t *testing.T, mk func() *machine) {
		prop := func(seed int64) bool {
			m := mk()
			randomPreCrash(m, seed, false)
			// Two same-line words.
			w1, w2 := memmodel.Addr(0x1000), memmodel.Addr(0x1008)
			// Record the full line history order before crashing.
			stores := append([]*trace.Store(nil), m.Trace().Current().StoresTo(w1)...)
			stores2 := m.Trace().Current().StoresTo(w2)
			if len(stores) == 0 || len(stores2) == 0 {
				return true // nothing to check
			}
			last1, last2 := stores[len(stores)-1], stores2[len(stores2)-1]
			m.Crash()
			// Force the newest store of w1.
			var chosen Candidate
			found := false
			for _, c := range m.LoadCandidates(0, w1) {
				if c.Store == last1 {
					chosen, found = c, true
				}
			}
			if !found {
				return true // newest excluded by flush bookkeeping elsewhere
			}
			m.Load(0, w1, chosen, m.Intern("r1"))
			// If last1 committed after last2, then last2 must have persisted
			// too: w2 must now read exactly last2.
			if last1.Seq > last2.Seq {
				c2 := m.LoadCandidates(0, w2)
				return len(c2) == 1 && c2[0].Store == last2
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("same-line prefix property violated: %v", err)
		}
	})
}

// Property: flushing after every store makes the post-crash image
// deterministic — exactly one candidate everywhere (strict persistency
// by construction).
func TestPropertyFullyFlushedIsDeterministic(t *testing.T) {
	eachModelProperty(t, func(t *testing.T, mk func() *machine) {
		prop := func(seed int64) bool {
			m := mk()
			randomPreCrash(m, seed, true)
			m.Crash()
			for _, a := range []memmodel.Addr{0x1000, 0x1008, 0x1040, 0x1048} {
				if len(m.LoadCandidates(0, a)) != 1 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("fully-flushed image not deterministic: %v", err)
		}
	})
}

// Property: adding flushes never widens the candidate sets — flushes
// only remove surviving-image nondeterminism.
func TestPropertyFlushMonotone(t *testing.T) {
	eachModelProperty(t, func(t *testing.T, mk func() *machine) {
		prop := func(seed int64) bool {
			base := mk()
			randomPreCrash(base, seed, false)
			base.Crash()
			flushed := mk()
			randomPreCrash(flushed, seed, true)
			flushed.Crash()
			for _, a := range []memmodel.Addr{0x1000, 0x1008, 0x1040, 0x1048} {
				if len(flushed.LoadCandidates(0, a)) > len(base.LoadCandidates(0, a)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("flushes not monotone: %v", err)
		}
	})
}

// Property: resolution is consistent — once every word has been read,
// re-reading yields the same stores (the crash image is a fixed image).
func TestPropertyResolutionStable(t *testing.T) {
	eachModelProperty(t, func(t *testing.T, mk func() *machine) {
		prop := func(seed int64, picks []uint8) bool {
			m := mk()
			randomPreCrash(m, seed, false)
			m.Crash()
			words := []memmodel.Addr{0x1000, 0x1008, 0x1040, 0x1048}
			first := make([]*trace.Store, len(words))
			for i, a := range words {
				cands := m.LoadCandidates(0, a)
				pick := 0
				if len(picks) > i {
					pick = int(picks[i]) % len(cands)
				}
				first[i] = cands[pick].Store
				m.Load(0, a, cands[pick], m.Intern("r"))
			}
			for i, a := range words {
				cands := m.LoadCandidates(0, a)
				if len(cands) != 1 || cands[0].Store != first[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("resolution not stable: %v", err)
		}
	})
}

// Property: the guaranteed-persist count never exceeds the number of
// committed stores and never decreases within a sub-execution.
func TestPropertyGuaranteeBounds(t *testing.T) {
	eachModelProperty(t, func(t *testing.T, mk func() *machine) {
		prop := func(seed int64) bool {
			m := mk()
			rng := rand.New(rand.NewSource(seed))
			line := memmodel.Addr(0x1000)
			committed, prevG := 0, 0
			for i := 0; i < 30; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					m.Store(0, line+memmodel.Addr(8*rng.Intn(4)), 1, m.Intern("s"))
					committed++
				case 2:
					m.Flush(0, line, m.Intern("f"))
				case 3:
					m.FlushOpt(0, line, m.Intern("fo"))
					m.SFence(0, m.Intern("sf"))
				}
				g := m.img.GuaranteedCount(line)
				if g < prevG || g > committed {
					return false
				}
				prevG = g
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("guarantee bounds violated: %v", err)
		}
	})
}
