package core

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

// This file checks the checker against the paper's Definition 2
// directly: for randomly generated pre-crash programs and every
// machine-reachable post-crash read outcome, a brute-force oracle
// decides whether a strictly-persistent equivalent exists — i.e.
// whether some multi-threaded prefix (a per-thread cut of the pre-crash
// stores, closed under happens-before, keeping TSO order) yields
// exactly the observed reads — and PSan's verdict must agree:
// violation reported ⇔ no such prefix exists.

// oracleOp is one pre-crash operation of the generated program.
type oracleOp struct {
	kind   int // 0 store, 1 flush, 2 sync read (thread 1 reads a location)
	thread memmodel.ThreadID
	addr   memmodel.Addr
	value  memmodel.Value
}

// genOps builds a deterministic random pre-crash program over up to
// three locations (two sharing a cache line), two threads, with
// occasional flushes and one optional inter-thread read creating a
// happens-before edge.
func genOps(seed int64) []oracleOp {
	rng := rand.New(rand.NewSource(seed))
	locs := []memmodel.Addr{0x1000, 0x1008, 0x2000} // first two share a line
	n := 2 + rng.Intn(5)
	var ops []oracleOp
	nextVal := memmodel.Value(1)
	for i := 0; i < n; i++ {
		t := memmodel.ThreadID(rng.Intn(2))
		a := locs[rng.Intn(len(locs))]
		switch rng.Intn(5) {
		case 0, 1, 2:
			ops = append(ops, oracleOp{kind: 0, thread: t, addr: a, value: nextVal})
			nextVal++
		case 3:
			ops = append(ops, oracleOp{kind: 1, thread: t, addr: a})
		case 4:
			ops = append(ops, oracleOp{kind: 2, thread: 1, addr: a})
		}
	}
	return ops
}

// runOnce executes the generated program, crashes, and performs the
// post-crash reads with the given candidate picks. It returns the
// observed read-from stores per location, the per-read candidate
// counts (for outcome enumeration), the pre-crash trace, and whether
// PSan reported any violation.
func runOnce(ops []oracleOp, picks []int) (rfs []*trace.Store, counts []int, tr *trace.Trace, flagged bool) {
	m := persist.MustNew(persist.Config{})
	ck := New(m.Trace())
	for _, op := range ops {
		switch op.kind {
		case 0:
			m.Store(op.thread, op.addr, op.value, m.Intern("s"))
		case 1:
			m.Flush(op.thread, op.addr, m.Intern("f"))
		case 2:
			cands := m.LoadCandidates(op.thread, op.addr)
			m.Load(op.thread, op.addr, cands[0], m.Intern("sync read"))
			ck.ObserveRead(op.thread, op.addr, cands[0].Store, m.Intern("sync read"))
		}
	}
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

// strictEquivalentExists is the ground-truth oracle: it enumerates every
// per-thread cut (k0, k1) of the pre-crash stores, keeps the cuts closed
// under happens-before, and checks whether the cut's memory image (the
// max-Seq store per location within the cut) matches the observed
// reads.
func strictEquivalentExists(tr *trace.Trace, rfs []*trace.Store) bool {
	pre := tr.Sub(0)
	perThread := map[memmodel.ThreadID][]*trace.Store{}
	for _, st := range pre.Stores() {
		perThread[st.Thread] = append(perThread[st.Thread], st)
	}
	t0, t1 := perThread[0], perThread[1]
	readOrder := []memmodel.Addr{0x1000, 0x1008, 0x2000}
	for k0 := 0; k0 <= len(t0); k0++ {
		for k1 := 0; k1 <= len(t1); k1++ {
			cut := append(append([]*trace.Store{}, t0[:k0]...), t1[:k1]...)
			if !hbClosed(tr, cut, pre.Stores()) {
				continue
			}
			if imageMatches(cut, readOrder, rfs) {
				return true
			}
		}
	}
	return false
}

// hbClosed reports whether every store happening before a cut member is
// itself in the cut.
func hbClosed(tr *trace.Trace, cut, all []*trace.Store) bool {
	in := map[*trace.Store]bool{}
	for _, s := range cut {
		in[s] = true
	}
	for _, b := range cut {
		for _, a := range all {
			if tr.HappensBefore(a, b) && !in[a] {
				return false
			}
		}
	}
	return true
}

// imageMatches checks the cut's per-location final stores against the
// observed reads (nil/initial observed ⇒ no store to the location in
// the cut).
func imageMatches(cut []*trace.Store, readOrder []memmodel.Addr, rfs []*trace.Store) bool {
	last := map[memmodel.Addr]*trace.Store{}
	for _, s := range cut {
		if cur, ok := last[s.Addr]; !ok || s.Seq > cur.Seq {
			last[s.Addr] = s
		}
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

// TestOracleAgreement enumerates, for many random programs, every
// machine-reachable post-crash outcome via DFS over candidate picks,
// and requires PSan's verdict to equal the ground truth.
func TestOracleAgreement(t *testing.T) {
	programs, outcomes, violations := 0, 0, 0
	for seed := int64(0); seed < 400; seed++ {
		ops := genOps(seed)
		programs++
		// DFS over pick vectors (3 reads).
		var enumerate func(prefix []int)
		enumerate = func(prefix []int) {
			if len(prefix) == 3 {
				rfs, _, tr, flagged := runOnce(ops, prefix)
				outcomes++
				truth := strictEquivalentExists(tr, rfs)
				if flagged == truth {
					// flagged must equal NOT truth.
					t.Fatalf("seed %d picks %v: PSan flagged=%v but strict equivalent exists=%v\nreads: %v",
						seed, prefix, flagged, truth, rfs)
				}
				if flagged {
					violations++
				}
				return
			}
			_, counts, _, _ := runOnce(ops, prefix)
			n := counts[len(prefix)]
			for pick := 0; pick < n; pick++ {
				enumerate(append(append([]int{}, prefix...), pick))
			}
		}
		enumerate(nil)
	}
	if outcomes == 0 || violations == 0 {
		t.Fatalf("oracle exercised %d programs, %d outcomes, %d violations — too few to be meaningful",
			programs, outcomes, violations)
	}
	t.Logf("oracle: %d programs, %d outcomes, %d violating outcomes, all verdicts agree",
		programs, outcomes, violations)
}
