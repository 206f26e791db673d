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

// sealedOf returns a line's sealed epochs, oldest first.
func sealedOf(im *Image, ls *lineState) []*epoch {
	var out []*epoch
	sealed := im.eps.view(ls.sealed)
	for j := range sealed {
		out = append(out, &sealed[j])
	}
	return out
}

// refIndexOfFirst returns the index of the first unretired store to word
// w, or -1.
func refIndexOfFirst(im *Image, ep *epoch, w memmodel.Addr) int {
	for i, r := range im.hist.view(ep.stores) {
		if r != trace.NoStore && im.tr.StoreAt(r).Addr == w {
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
		sealed = sealedOf(im, ls)
	}
	blocked := false
	for j := len(sealed) - 1; j >= 0 && !blocked; j-- {
		ep := sealed[j]
		hist := im.hist.view(ep.stores)
		var idxs []int
		for i, r := range hist {
			if r != trace.NoStore && im.tr.StoreAt(r).Addr == a {
				idxs = append(idxs, i)
			}
		}
		for k, i := range idxs {
			next := len(hist)
			if k+1 < len(idxs) {
				next = idxs[k+1]
			}
			lo := max(ep.lo, i+1)
			hi := min(ep.hi, next)
			if lo <= hi {
				cands = append(cands, Candidate{Store: im.tr.StoreAt(hist[i]), Resolve: true, Epoch: j, LoNew: lo, HiNew: hi})
			}
		}
		if len(idxs) > 0 && ep.lo > idxs[0] {
			blocked = true
		}
	}
	return cands, blocked
}

// refResolve is Resolve with refIndexOfFirst.
func refResolve(im *Image, a memmodel.Addr, c Candidate, loc trace.LocID) {
	if !c.Resolve {
		return
	}
	ls := im.lookup(a)
	if ls == nil {
		return
	}
	sealed := sealedOf(im, ls)
	for j := len(sealed) - 1; j > c.Epoch; j-- {
		ep := sealed[j]
		if first := refIndexOfFirst(im, ep, a); first >= 0 && ep.hi > first {
			ep.hi = first
			if ep.lo > ep.hi {
				panic(InvariantError{Model: im.name, Check: "crash-image resolution", Addr: a, Loc: im.tr.LocString(loc)})
			}
		}
	}
	if c.Epoch >= 0 {
		ep := sealed[c.Epoch]
		ep.lo, ep.hi = c.LoNew, c.HiNew
		if ep.lo > ep.hi {
			panic(InvariantError{Model: im.name, Check: "prefix range", Addr: a, Loc: im.tr.LocString(loc)})
		}
	}
}

// refRetire is the full retirement the incremental one replaced: every
// epoch, sealed or live, is swept linearly, its dead entries killed and
// every survivor marked, whatever the previous retirement found.
func refRetire(im *Image, mark func(*trace.Store)) {
	for _, a := range im.all {
		ls := im.lookup(a)
		for _, ep := range sealedOf(im, ls) {
			refRetireEpoch(im, ep, mark)
		}
		refRetireEpoch(im, &ls.live, mark)
	}
}

// refRetireEpoch applies the kill rule to one epoch by one backward
// sweep and marks the survivors.
func refRetireEpoch(im *Image, ep *epoch, mark func(*trace.Store)) {
	// next holds, per word of the line, 1 + the nearest following
	// non-hole index (0: none yet). A previously killed follower is fine
	// to stand in for a live one: kills only happen below ep.lo, so the
	// comparison agrees.
	var next [memmodel.WordsPerLine]int
	hist := im.hist.view(ep.stores)
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i] == trace.NoStore {
			continue
		}
		s := im.tr.StoreAt(hist[i])
		w := s.Addr.LineIndex()
		if j := next[w]; j > 0 && j-1 < ep.lo {
			hist[i] = trace.NoStore
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
	for n, a := range got.all {
		gl, rl := got.lookup(a), ref.lookup(ref.all[n])
		if gl.line != rl.line || gl.sealed.n != rl.sealed.n {
			return fmt.Sprintf("line %d: %v with %d sealed epochs, reference %v with %d", n, gl.line, gl.sealed.n, rl.line, rl.sealed.n)
		}
		eps := append(sealedOf(got, gl), &gl.live)
		refs := append(sealedOf(ref, rl), &rl.live)
		for j, ge := range eps {
			re := refs[j]
			gh, rh := got.hist.view(ge.stores), ref.hist.view(re.stores)
			if ge.lo != re.lo || ge.hi != re.hi || len(gh) != len(rh) {
				return fmt.Sprintf("line %v epoch %d: [%d,%d] of %d stores, reference [%d,%d] of %d",
					gl.line, j, ge.lo, ge.hi, len(gh), re.lo, re.hi, len(rh))
			}
			for i := range gh {
				if gh[i] != rh[i] {
					return fmt.Sprintf("line %v epoch %d position %d: %v, reference %v", gl.line, j, i, gh[i], rh[i])
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
		tr.Reset()
		got, ref := NewImage("got", tr), NewImage("got", tr)
		windowed := seed%2 == 1
		pins := &pinSet{t: t, pins: map[*trace.Store]bool{}}
		var commits []trace.StoreRef
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
				st := tr.StoreIssue(0, a, memmodel.Value(nextID), memmodel.OpStore, trace.NoLoc)
				nextID++
				got.Commit(st)
				ref.Commit(st)
				commits = append(commits, st.Ref())
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
					c.Epoch = rng.Intn(int(ls.sealed.n)+1) - 1
					c.LoNew, c.HiNew = rng.Intn(8), rng.Intn(8)
				} else if n := len(gotBuf); n > 0 && (rb || rng.Intn(n+1) < n) {
					c = gotBuf[rng.Intn(n)]
				}
				gp := recovered(func() { got.Resolve(a, c, loc) })
				rp := recovered(func() { refResolve(ref, a, c, loc) })
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
