package persist_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memmodel"
	"repro/internal/persist"
)

var words = []memmodel.Addr{0x1000, 0x1008, 0x1040, 0x1048}

// randomProgram drives a model through a pseudo-random pre-crash
// program derived from the seed: stores, flushes, flushopts, fences,
// RMWs, and (when the model buffers) partial drains over a handful of
// words spread across two cache lines. The op sequence depends only on
// the seed, so two models driven with the same seed see the same
// instruction stream.
func randomProgram(m persist.Model, seed int64, alwaysFlush bool) {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(20)
	for i := 0; i < n; i++ {
		t := memmodel.ThreadID(rng.Intn(2))
		a := words[rng.Intn(len(words))]
		switch rng.Intn(7) {
		case 0, 1, 2:
			m.Store(t, a, memmodel.Value(rng.Intn(100)+1), m.Intern("store"))
			if alwaysFlush {
				m.Flush(t, a, m.Intern("flush-after-store"))
				m.SFence(t, m.Intern("sfence-after-store"))
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
				m.SFence(t, m.Intern("sfence-after-faa"))
			}
		case 6:
			// Exercise store-buffer interleavings where they exist; a
			// no-op on bufferless models. The rng draw happens either
			// way, keeping the instruction stream aligned.
			m.DrainOne(t)
		}
	}
}

// sameCandidates reports whether two candidate sets are identical in
// order, store identity (ID and value), and resolution bookkeeping.
func sameCandidates(a, b []persist.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ca, cb := a[i], b[i]
		if ca.Store.ID != cb.Store.ID || ca.Store.Value != cb.Store.Value ||
			ca.Store.Initial != cb.Store.Initial ||
			ca.Resolve != cb.Resolve || ca.Epoch != cb.Epoch ||
			ca.LoNew != cb.LoNew || ca.HiNew != cb.HiNew {
			return false
		}
	}
	return true
}

// copyCandidates snapshots a model-owned scratch slice.
func copyCandidates(cands []persist.Candidate) []persist.Candidate {
	return append([]persist.Candidate(nil), cands...)
}

// Property: a fully-flushed program is verdict- and heap-identical
// under every registered backend — after the crash each word has
// exactly one candidate, and its value agrees across models. This is
// the differential core: when no weak behavior is left, strict, px86,
// and ptsosyn are the same machine.
func TestPropertyCrossModelFullyFlushed(t *testing.T) {
	names := persist.Names()
	prop := func(seed int64) bool {
		values := make(map[string][]memmodel.Value)
		for _, name := range names {
			m := persist.MustNew(persist.Config{Name: name})
			randomProgram(m, seed, true)
			m.Crash()
			vals := make([]memmodel.Value, len(words))
			for i, a := range words {
				cands := m.LoadCandidates(0, a)
				if len(cands) != 1 {
					t.Logf("model %s seed %d: %d candidates at %v", name, seed, len(cands), a)
					return false
				}
				vals[i] = cands[0].Store.Value
			}
			values[name] = vals
		}
		ref := values[names[0]]
		for _, name := range names[1:] {
			for i := range words {
				if values[name][i] != ref[i] {
					t.Logf("seed %d: %s and %s disagree at %v: %d vs %d",
						seed, names[0], name, words[i], ref[i], values[name][i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("fully-flushed cross-model property violated: %v", err)
	}
}

// Property: px86 and ptsosyn are observationally equivalent on
// arbitrary programs — identical candidate sets at every word after a
// crash, and identical persistent-state fingerprints. Checked in both
// immediate-commit and delayed-commit (store-buffer) modes.
func TestPropertyPx86PTSOsynEquivalent(t *testing.T) {
	for _, delayed := range []bool{false, true} {
		delayed := delayed
		name := "immediate"
		if delayed {
			name = "delayed"
		}
		t.Run(name, func(t *testing.T) {
			prop := func(seed int64) bool {
				a := persist.MustNew(persist.Config{Name: "px86", DelayedCommit: delayed})
				b := persist.MustNew(persist.Config{Name: "ptsosyn", DelayedCommit: delayed})
				randomProgram(a, seed, false)
				randomProgram(b, seed, false)
				a.Crash()
				b.Crash()
				if a.PersistFingerprint() != b.PersistFingerprint() {
					t.Logf("seed %d: fingerprints differ", seed)
					return false
				}
				for _, w := range words {
					ca := copyCandidates(a.LoadCandidates(0, w))
					cb := b.LoadCandidates(0, w)
					if !sameCandidates(ca, cb) {
						t.Logf("seed %d: candidate sets differ at %v: %v vs %v", seed, w, ca, cb)
						return false
					}
				}
				// Resolve a word identically on both and compare again:
				// narrowing must also agree.
				ca := copyCandidates(a.LoadCandidates(1, words[0]))
				cb := copyCandidates(b.LoadCandidates(1, words[0]))
				pick := int(seed&0x7fffffff) % len(ca)
				va := a.Load(1, words[0], ca[pick], a.Intern("r"))
				vb := b.Load(1, words[0], cb[pick], b.Intern("r"))
				if va != vb {
					return false
				}
				for _, w := range words {
					ca := copyCandidates(a.LoadCandidates(0, w))
					cb := b.LoadCandidates(0, w)
					if !sameCandidates(ca, cb) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
				t.Errorf("px86/ptsosyn equivalence violated (%s commit): %v", name, err)
			}
		})
	}
}

// Property: under strict persistency every post-crash load has exactly
// one candidate — the newest committed store (or the initial value) —
// on arbitrary programs, flushed or not. Strict is the deterministic
// oracle; nondeterministic candidate sets would make it useless as one.
func TestPropertyStrictSingleCandidate(t *testing.T) {
	prop := func(seed int64, crashes uint8) bool {
		m := persist.MustNew(persist.Config{Name: "strict"})
		n := 1 + int(crashes%3)
		for c := 0; c < n; c++ {
			randomProgram(m, seed+int64(c), false)
			// Track the newest committed value per word before crashing.
			want := make(map[memmodel.Addr]memmodel.Value)
			for _, a := range words {
				cands := m.LoadCandidates(0, a)
				if len(cands) != 1 {
					return false
				}
				want[a] = cands[0].Store.Value
			}
			m.Crash()
			for _, a := range words {
				cands := m.LoadCandidates(0, a)
				if len(cands) != 1 {
					t.Logf("seed %d crash %d: %d candidates at %v", seed, c, len(cands), a)
					return false
				}
				if cands[0].Store.Value != want[a] {
					t.Logf("seed %d crash %d: lost newest value at %v", seed, c, a)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("strict single-candidate property violated: %v", err)
	}
}

// Property: px86/ptsosyn equivalence survives multiple crashes with
// interleaved post-crash reads — the lazy resolution state carried
// across sub-executions narrows identically.
func TestPropertyPx86PTSOsynMultiCrash(t *testing.T) {
	prop := func(seed int64, picks []uint8) bool {
		a := persist.MustNew(persist.Config{Name: "px86"})
		b := persist.MustNew(persist.Config{Name: "ptsosyn"})
		for c := 0; c < 3; c++ {
			randomProgram(a, seed+int64(c), false)
			randomProgram(b, seed+int64(c), false)
			a.Crash()
			b.Crash()
			for i, w := range words {
				ca := copyCandidates(a.LoadCandidates(0, w))
				cb := copyCandidates(b.LoadCandidates(0, w))
				if !sameCandidates(ca, cb) {
					return false
				}
				pick := 0
				if len(picks) > i {
					pick = int(picks[i]) % len(ca)
				}
				if a.Load(0, w, ca[pick], a.Intern("r")) != b.Load(0, w, cb[pick], b.Intern("r")) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("multi-crash px86/ptsosyn equivalence violated: %v", err)
	}
}

// Reset must restore cross-model equivalence from a clean slate: a
// reused machine replays exactly like a fresh one.
func TestCrossModelReset(t *testing.T) {
	for _, name := range persist.Names() {
		m := persist.MustNew(persist.Config{Name: name})
		randomProgram(m, 7, false)
		m.Crash()
		m.Reset()
		fresh := persist.MustNew(persist.Config{Name: name})
		randomProgram(m, 11, false)
		randomProgram(fresh, 11, false)
		m.Crash()
		fresh.Crash()
		if m.PersistFingerprint() != fresh.PersistFingerprint() {
			t.Errorf("%s: reset machine fingerprint differs from fresh machine", name)
		}
	}
}
