package core

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

// Multi-crash ground truth: programs with two crash events. The final
// sub-execution only reads, and the middle one only writes, so
// Definition 2 reduces to: there exist per-sub-execution cuts (each a
// per-thread prefix closed under happens-before) whose stacked image —
// the newer sub-execution's cut overriding the older's per location —
// matches every observed read. The checker's verdict must agree.

// genOps2 returns the two pre-crash phases (phase 1 on two threads,
// phase 2 on one).
func genOps2(seed int64) (p1, p2 []oracleOp) {
	rng := rand.New(rand.NewSource(seed))
	locs := []memmodel.Addr{0x1000, 0x1008, 0x2000}
	n1 := 2 + rng.Intn(4)
	var next memmodel.Value = 1
	for i := 0; i < n1; i++ {
		t := memmodel.ThreadID(rng.Intn(2))
		a := locs[rng.Intn(len(locs))]
		if rng.Intn(4) == 3 {
			p1 = append(p1, oracleOp{kind: 1, thread: t, addr: a})
		} else {
			p1 = append(p1, oracleOp{kind: 0, thread: t, addr: a, value: next})
			next++
		}
	}
	n2 := 1 + rng.Intn(3)
	for i := 0; i < n2; i++ {
		a := locs[rng.Intn(len(locs))]
		if rng.Intn(4) == 3 {
			p2 = append(p2, oracleOp{kind: 1, thread: 0, addr: a})
		} else {
			p2 = append(p2, oracleOp{kind: 0, thread: 0, addr: a, value: next})
			next++
		}
	}
	return p1, p2
}

// runOnce2 executes both phases with crashes and performs the picked
// post-crash reads in sub-execution 3.
func runOnce2(p1, p2 []oracleOp, picks []int) (rfs []*trace.Store, counts []int, tr *trace.Trace, flagged bool) {
	m := persist.MustNew(persist.Config{})
	ck := New(m.Trace())
	apply := func(ops []oracleOp) {
		for _, op := range ops {
			switch op.kind {
			case 0:
				m.Store(op.thread, op.addr, op.value, m.Intern("s"))
			case 1:
				m.Flush(op.thread, op.addr, m.Intern("f"))
			}
		}
	}
	apply(p1)
	m.Crash()
	apply(p2)
	m.Crash()
	readOrder := []memmodel.Addr{0x1000, 0x1008, 0x2000}
	for i, a := range readOrder {
		cands := m.LoadCandidates(0, a)
		counts = append(counts, len(cands))
		pick := 0
		if i < len(picks) && picks[i] < len(cands) {
			pick = picks[i]
		}
		m.Load(0, a, cands[pick], m.Intern("post read"))
		if vs := ck.ObserveRead(0, a, cands[pick].Store, m.Intern("post read")); len(vs) > 0 {
			flagged = true
		}
		rfs = append(rfs, cands[pick].Store)
	}
	return rfs, counts, m.Trace(), flagged
}

// strictEquivalentExists2 brute-forces the stacked-cut existence.
func strictEquivalentExists2(tr *trace.Trace, rfs []*trace.Store) bool {
	readOrder := []memmodel.Addr{0x1000, 0x1008, 0x2000}
	e1, e2 := tr.Sub(0), tr.Sub(1)
	per1 := map[memmodel.ThreadID][]*trace.Store{}
	for _, st := range e1.Stores() {
		per1[st.Thread] = append(per1[st.Thread], st)
	}
	t0, t1 := per1[0], per1[1]
	e2s := e2.Stores() // single thread: prefixes in commit order
	for k0 := 0; k0 <= len(t0); k0++ {
		for k1 := 0; k1 <= len(t1); k1++ {
			cut1 := append(append([]*trace.Store{}, t0[:k0]...), t1[:k1]...)
			if !hbClosed(tr, cut1, e1.Stores()) {
				continue
			}
			for k2 := 0; k2 <= len(e2s); k2++ {
				if stackedImageMatches(cut1, e2s[:k2], readOrder, rfs) {
					return true
				}
			}
		}
	}
	return false
}

// stackedImageMatches applies cut2 over cut1 per location.
func stackedImageMatches(cut1, cut2 []*trace.Store, readOrder []memmodel.Addr, rfs []*trace.Store) bool {
	last := map[memmodel.Addr]*trace.Store{}
	for _, s := range cut1 {
		if cur, ok := last[s.Addr]; !ok || s.Seq > cur.Seq {
			last[s.Addr] = s
		}
	}
	for _, s := range cut2 { // commit order; later entries override
		last[s.Addr] = s
	}
	for i, a := range readOrder {
		want := rfs[i]
		got := last[a]
		if want.Initial {
			if got != nil {
				return false
			}
		} else if got != want {
			return false
		}
	}
	return true
}

// TestOracleAgreementMultiCrash enumerates every reachable outcome of
// two-crash programs and compares the checker's verdict against the
// stacked-cut ground truth.
func TestOracleAgreementMultiCrash(t *testing.T) {
	outcomes, violations := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		p1, p2 := genOps2(seed)
		var enumerate func(prefix []int)
		enumerate = func(prefix []int) {
			if len(prefix) == 3 {
				rfs, _, tr, flagged := runOnce2(p1, p2, prefix)
				outcomes++
				truth := strictEquivalentExists2(tr, rfs)
				if flagged == truth {
					t.Fatalf("seed %d picks %v: flagged=%v but strict equivalent exists=%v\nreads: %v",
						seed, prefix, flagged, truth, rfs)
				}
				if flagged {
					violations++
				}
				return
			}
			_, counts, _, _ := runOnce2(p1, p2, prefix)
			for pick := 0; pick < counts[len(prefix)]; pick++ {
				enumerate(append(append([]int{}, prefix...), pick))
			}
		}
		enumerate(nil)
	}
	if outcomes == 0 || violations == 0 {
		t.Fatalf("oracle too weak: %d outcomes, %d violations", outcomes, violations)
	}
	t.Logf("multi-crash oracle: %d outcomes, %d violating, all verdicts agree", outcomes, violations)
}
