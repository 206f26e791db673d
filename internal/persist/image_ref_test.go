package persist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/trace"
)

// The reference crash-image walks below are the linear scans the word
// index replaced: every sealed-epoch operation reads the line's whole
// history. TestSealedIndexRetireMatchesReference drives an image through
// them and another through the index and compares everything a caller
// or the trace sweep can observe.

// refIndexOfFirst returns the index of the first unretired store to word
// w, or -1.
func refIndexOfFirst(ep *epoch, w memmodel.Addr) int {
	for i, s := range ep.stores {
		if s != nil && s.Addr == w {
			return i
		}
	}
	return -1
}

// refAppendSealedCandidates is AppendSealedCandidates by a linear scan of
// each sealed epoch.
func refAppendSealedCandidates(im *Image, cands []Candidate, a memmodel.Addr) ([]Candidate, bool) {
	ls := im.lookup(a)
	var sealed []*epoch
	if ls != nil {
		sealed = ls.sealed
	}
	blocked := false
	for j := len(sealed) - 1; j >= 0 && !blocked; j-- {
		ep := sealed[j]
		var idxs []int
		for i, s := range ep.stores {
			if s != nil && s.Addr == a {
				idxs = append(idxs, i)
			}
		}
		for k, i := range idxs {
			next := len(ep.stores)
			if k+1 < len(idxs) {
				next = idxs[k+1]
			}
			lo := max(ep.lo, i+1)
			hi := min(ep.hi, next)
			if lo <= hi {
				cands = append(cands, Candidate{Store: ep.stores[i], Resolve: true, Epoch: j, LoNew: lo, HiNew: hi})
			}
		}
		if len(idxs) > 0 && ep.lo > idxs[0] {
			blocked = true
		}
	}
	return cands, blocked
}

// refResolve is Resolve with refIndexOfFirst.
func refResolve(im *Image, a memmodel.Addr, c Candidate, tr *trace.Trace, loc trace.LocID) {
	if !c.Resolve {
		return
	}
	ls := im.lookup(a)
	if ls == nil {
		return
	}
	for j := len(ls.sealed) - 1; j > c.Epoch; j-- {
		ep := ls.sealed[j]
		if first := refIndexOfFirst(ep, a); first >= 0 && ep.hi > first {
			ep.hi = first
			if ep.lo > ep.hi {
				panic(InvariantError{Model: im.name, Check: "crash-image resolution", Addr: a, Loc: tr.LocString(loc)})
			}
		}
	}
	if c.Epoch >= 0 {
		ep := ls.sealed[c.Epoch]
		ep.lo, ep.hi = c.LoNew, c.HiNew
		if ep.lo > ep.hi {
			panic(InvariantError{Model: im.name, Check: "prefix range", Addr: a, Loc: tr.LocString(loc)})
		}
	}
}

// refRetire is the full retirement the incremental one replaced: every
// epoch, sealed or live, is swept linearly, its dead entries killed and
// every survivor marked, whatever the previous retirement found.
func refRetire(im *Image, mark func(*trace.Store)) {
	for _, ls := range im.all {
		for _, ep := range ls.sealed {
			refRetireEpoch(ep, mark)
		}
		refRetireEpoch(ls.live, mark)
	}
}

// refRetireEpoch applies the kill rule to one epoch by one backward
// sweep and marks the survivors.
func refRetireEpoch(ep *epoch, mark func(*trace.Store)) {
	// next holds, per word of the line, 1 + the nearest following
	// non-hole index (0: none yet). A previously killed follower is fine
	// to stand in for a live one: kills only happen below ep.lo, so the
	// comparison agrees.
	var next [memmodel.WordsPerLine]int
	for i := len(ep.stores) - 1; i >= 0; i-- {
		s := ep.stores[i]
		if s == nil {
			continue
		}
		w := s.Addr.LineIndex()
		if j := next[w]; j > 0 && j-1 < ep.lo {
			ep.stores[i] = nil
		} else {
			mark(s)
		}
		next[w] = i + 1
	}
}

// pinSet is a pinner that records the image's sticky pins, failing the
// test on a double pin or an unpin of a store it does not hold.
type pinSet struct {
	t      *testing.T
	pins   map[*trace.Store]bool
	unpins int
}

func (p *pinSet) Pin(s *trace.Store) {
	if p.pins[s] {
		p.t.Fatalf("store %d pinned twice", s.ID)
	}
	p.pins[s] = true
}

func (p *pinSet) Unpin(s *trace.Store) {
	if !p.pins[s] {
		p.t.Fatalf("store %d unpinned but not pinned", s.ID)
	}
	delete(p.pins, s)
	p.unpins++
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// sameImageState reports the first difference between two images'
// observable state — line order, every epoch's bounds, length and nil
// holes, with the same store at every other position — or "".
func sameImageState(got, ref *Image) string {
	if len(got.all) != len(ref.all) {
		return fmt.Sprintf("%d lines, reference %d", len(got.all), len(ref.all))
	}
	for n, gl := range got.all {
		rl := ref.all[n]
		if gl.line != rl.line || len(gl.sealed) != len(rl.sealed) {
			return fmt.Sprintf("line %d: %v with %d sealed epochs, reference %v with %d", n, gl.line, len(gl.sealed), rl.line, len(rl.sealed))
		}
		eps := append(append([]*epoch(nil), gl.sealed...), gl.live)
		refs := append(append([]*epoch(nil), rl.sealed...), rl.live)
		for j, ge := range eps {
			re := refs[j]
			if ge.lo != re.lo || ge.hi != re.hi || len(ge.stores) != len(re.stores) {
				return fmt.Sprintf("line %v epoch %d: [%d,%d] of %d stores, reference [%d,%d] of %d",
					gl.line, j, ge.lo, ge.hi, len(ge.stores), re.lo, re.hi, len(re.stores))
			}
			for i := range ge.stores {
				if ge.stores[i] != re.stores[i] {
					return fmt.Sprintf("line %v epoch %d position %d: %v, reference %v", gl.line, j, i, ge.stores[i], re.stores[i])
				}
			}
		}
	}
	return ""
}

// TestSealedIndexRetireMatchesReference drives two images through the
// same seeded multi-crash streams of commits, guarantees, seals,
// post-crash loads and resets, with either windowed retirements (odd
// seeds) or crash-boundary snapshots restored, possibly repeatedly
// (even seeds: an image under retirement takes no snapshots). One
// image answers loads, resolutions and retirements through its sealed
// epochs' word indexes and its incremental sticky pins, the other
// through the reference linear scans and a full re-mark. Every load
// must see the same candidate slice and blocked flag, every resolution
// (including deliberately contradictory ones) the same bounds and the
// same InvariantError panic, and every retirement leave the image's
// pinned set equal to the reference's marked set, with the same nil
// holes. Stores go mostly to one word of each line and are read through
// all of them, so epochs hold long single-word runs that the binary
// search and the retired prefix skip through.
func TestSealedIndexRetireMatchesReference(t *testing.T) {
	lines := []memmodel.Addr{0x1000, 0x1040, 0x100200}
	tr := trace.New()
	loc := tr.Intern("ref.load")
	unpins := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, ref := NewImage("got"), NewImage("got")
		windowed := seed%2 == 1
		pins := &pinSet{t: t, pins: map[*trace.Store]bool{}}
		var commits []*trace.Store
		var gotSnap, refSnap *ImageSnapshot
		var gotBuf, refBuf []Candidate
		nextID := int64(1)
		word := func() memmodel.Addr {
			w := 0
			if rng.Intn(3) == 0 {
				w = rng.Intn(memmodel.WordsPerLine)
			}
			return lines[rng.Intn(len(lines))] + memmodel.Addr(w*memmodel.WordSize)
		}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		for step := 0; step < 600; step++ {
			a := word()
			switch op := rng.Intn(20); {
			case op < 8:
				st := &trace.Store{ID: nextID, Addr: a, Value: memmodel.Value(nextID)}
				nextID++
				got.Commit(st)
				ref.Commit(st)
				commits = append(commits, st)
			case op < 9:
				got.Guarantee(a)
				ref.Guarantee(a)
			case op < 10:
				n := rng.Intn(got.LiveLen(a) + 1)
				ref.LiveLen(a)
				got.GuaranteeUpTo(a, n)
				ref.GuaranteeUpTo(a, n)
			case op < 11:
				got.Seal()
				ref.Seal()
				if got.Fingerprint() != ref.Fingerprint() {
					fail(step, "fingerprints differ after seal")
				}
				commits = commits[:0]
				if !windowed && rng.Intn(2) == 0 {
					gotSnap, refSnap = got.Snapshot(), ref.Snapshot()
				}
			case op < 15:
				var gb, rb bool
				gotBuf, gb = got.AppendSealedCandidates(gotBuf[:0], a)
				refBuf, rb = refAppendSealedCandidates(ref, refBuf[:0], a)
				if gb != rb || len(gotBuf) != len(refBuf) {
					fail(step, "load %v: %d candidates blocked=%v, reference %d blocked=%v", a, len(gotBuf), gb, len(refBuf), rb)
				}
				for i := range gotBuf {
					if gotBuf[i] != refBuf[i] {
						fail(step, "load %v: candidate %d is %+v, reference %+v", a, i, gotBuf[i], refBuf[i])
					}
				}
				c := Candidate{Store: &trace.Store{Addr: a, Initial: true}, Resolve: true, Epoch: -1}
				if ls := got.lookup(a); ls != nil && rng.Intn(6) == 0 {
					// A contradictory choice: narrowing must trip the
					// same invariant at the same epoch on both sides.
					c.Epoch = rng.Intn(len(ls.sealed)+1) - 1
					c.LoNew, c.HiNew = rng.Intn(8), rng.Intn(8)
				} else if n := len(gotBuf); n > 0 && (rb || rng.Intn(n+1) < n) {
					c = gotBuf[rng.Intn(n)]
				}
				gp := recovered(func() { got.Resolve(a, c, tr, loc) })
				rp := recovered(func() { refResolve(ref, a, c, tr, loc) })
				if gp != rp {
					fail(step, "resolve %v to %+v panicked with %v, reference %v", a, c, gp, rp)
				}
			case op < 17 && windowed:
				refMarked := map[*trace.Store]bool{}
				got.retire(commits, pins)
				commits = commits[:0]
				refRetire(ref, func(s *trace.Store) { refMarked[s] = true })
				if len(pins.pins) != len(refMarked) {
					fail(step, "retire pinned %d stores, reference %d", len(pins.pins), len(refMarked))
				}
				for s := range refMarked {
					if !pins.pins[s] {
						fail(step, "retire left store %d unpinned", s.ID)
					}
				}
			case op < 17:
			case op < 19:
				if gotSnap != nil {
					got.Restore(gotSnap)
					ref.Restore(refSnap)
				}
			default:
				if rng.Intn(4) == 0 {
					got.Reset()
					ref.Reset()
					gotSnap, refSnap = nil, nil
					clear(pins.pins)
					commits = commits[:0]
				}
			}
			if d := sameImageState(got, ref); d != "" {
				fail(step, "%s", d)
			}
		}
		unpins += pins.unpins
	}
	if unpins == 0 {
		t.Fatal("no retirement ever unpinned a killed store")
	}
}
