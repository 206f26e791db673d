package vclock

import (
	"math/rand"
	"testing"

	"repro/internal/memmodel"
)

// refCV is the allocate-per-op clock vector the inline CV replaced: an
// immutable slice of components sorted by thread, free of zero clocks,
// with every changing operation building a fresh slice. It is the
// reference TestCVMatchesSliceReference checks the inline form against.
type refCV struct{ comps []component }

func (v refCV) At(t memmodel.ThreadID) Clock {
	for _, e := range v.comps {
		if e.t == t {
			return e.c
		}
	}
	return 0
}

func (v refCV) Leq(w refCV) bool {
	for _, e := range v.comps {
		if e.c > w.At(e.t) {
			return false
		}
	}
	return true
}

func (v refCV) WithClock(t memmodel.ThreadID, c Clock) refCV {
	out := make([]component, 0, len(v.comps)+1)
	placed := false
	for _, e := range v.comps {
		if !placed && e.t >= t {
			if c != 0 {
				out = append(out, component{t: t, c: c})
			}
			placed = true
			if e.t == t {
				continue
			}
		}
		out = append(out, e)
	}
	if !placed && c != 0 {
		out = append(out, component{t: t, c: c})
	}
	return refCV{comps: out}
}

func (v refCV) Inc(t memmodel.ThreadID) refCV { return v.WithClock(t, v.At(t)+1) }

func (v refCV) Join(w refCV) refCV {
	out := v
	for _, e := range w.comps {
		if e.c > out.At(e.t) {
			out = out.WithClock(e.t, e.c)
		}
	}
	return out
}

// sameAs reports whether the inline vector v holds exactly ref's
// components, in order.
func sameAs(v CV, ref refCV) bool {
	var got []component
	for i, n := 0, v.Len(); i < n; i++ {
		t, c := v.Comp(i)
		got = append(got, component{t, c})
	}
	if len(got) != len(ref.comps) {
		return false
	}
	for i := range got {
		if got[i] != ref.comps[i] {
			return false
		}
	}
	return true
}

// TestCVMatchesSliceReference drives the inline CV and the slice
// reference through the same random Inc/Join/WithClock sequences and
// compares every result and every Leq/At/IsBottom/Equal answer. Thread
// pools up to 7 wide force vectors past the four inline components
// (spill), and an occasional out-of-range thread or huge clock forces
// the spill form on small vectors too.
func TestCVMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 400; round++ {
		width := 1 + rng.Intn(7)
		thread := func() memmodel.ThreadID {
			if rng.Intn(50) == 0 {
				return memmodel.ThreadID(1<<16 + rng.Intn(3)) // does not pack
			}
			return memmodel.ThreadID(rng.Intn(width) * 3)
		}
		const pool = 6
		var cvs [pool]CV
		var refs [pool]refCV
		for step := 0; step < 60; step++ {
			i, j := rng.Intn(pool), rng.Intn(pool)
			switch op := rng.Intn(10); {
			case op < 5:
				th := thread()
				cvs[i], refs[i] = cvs[j].Inc(th), refs[j].Inc(th)
			case op < 8:
				cvs[i], refs[i] = cvs[i].Join(cvs[j]), refs[i].Join(refs[j])
			default:
				th := thread()
				c := Clock(rng.Intn(5))
				if rng.Intn(20) == 0 {
					c = 1 << 50 // does not pack
				}
				cvs[i], refs[i] = cvs[j].WithClock(th, c), refs[j].WithClock(th, c)
			}
			for k := range cvs {
				if !sameAs(cvs[k], refs[k]) {
					t.Fatalf("round %d step %d: cv[%d] = %v, reference %v", round, step, k, cvs[k], refs[k].comps)
				}
				if cvs[k].IsBottom() != (len(refs[k].comps) == 0) {
					t.Fatalf("round %d step %d: IsBottom(%v) disagrees", round, step, cvs[k])
				}
				for l := range cvs {
					if got, want := cvs[k].Leq(cvs[l]), refs[k].Leq(refs[l]); got != want {
						t.Fatalf("%v ≤ %v = %v, reference %v", cvs[k], cvs[l], got, want)
					}
					if got, want := cvs[k].Equal(cvs[l]), refs[k].Leq(refs[l]) && refs[l].Leq(refs[k]); got != want {
						t.Fatalf("%v == %v = %v, reference %v", cvs[k], cvs[l], got, want)
					}
				}
				th := thread()
				if got, want := cvs[k].At(th), refs[k].At(th); got != want {
					t.Fatalf("%v.At(%d) = %d, reference %d", cvs[k], th, got, want)
				}
			}
		}
	}
}

// TestCVInlineOpsDoNotAllocate: Inc and Join on vectors of at most four
// components allocate nothing.
func TestCVInlineOpsDoNotAllocate(t *testing.T) {
	v := Bottom().Inc(0).Inc(3)
	w := Bottom().Inc(1).Inc(5).Inc(5)
	var sink CV
	if n := testing.AllocsPerRun(100, func() {
		sink = v.Inc(3).Inc(5).Join(w).Inc(1)
	}); n != 0 {
		t.Fatalf("inline Inc/Join allocated %v times per run", n)
	}
	if got := sink.String(); got != "{t0:1 t1:2 t3:2 t5:2}" {
		t.Fatalf("result %s", got)
	}
}
