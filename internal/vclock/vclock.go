// Package vclock implements the clock vectors and sequence numbers of the
// paper's Section 3.4 (Figure 3). Clock vectors track the happens-before
// relation over stores; sequence numbers record the TSO order in which
// stores commit to the cache.
//
// A clock vector maps each thread to a logical clock. The paper defines:
//
//	⊥CV            = λτ.0
//	CV1 ∪ CV2      = λτ.max(CV1(τ), CV2(τ))
//	CV1 ≤ CV2      ⇔ ∀τ. CV1(τ) ≤ CV2(τ)
//	incτ(CV)       = bump component τ by one
//
// Every store in a thread has a unique clock — the τ-th component of its
// clock vector at issue time — because incτ is applied on every store
// issue and loads can only raise the *other* components of the issuing
// thread's vector.
//
// Vectors are values: up to four non-zero (thread, clock) components sit
// inline in the CV itself, packed one per word and sorted by thread.
// Executions involve a handful of threads, so the inline form covers
// nearly every vector, and every operation on it — At, Leq, Inc, Join —
// allocates nothing: a trace record carries its vector in its own
// memory, and a retired record takes its vector with it. A vector with
// more components (or one the packing cannot hold) spills to a
// heap-allocated, immutable component slice; only building a spilled
// vector allocates.
package vclock

import (
	"fmt"
	"strings"

	"repro/internal/memmodel"
)

// Clock is a single logical clock value: the per-thread issue counter.
type Clock int64

// Seq is a TSO sequence number: the global order in which stores commit
// to the cache within one sub-execution. Seq 0 means "not yet committed"
// (Figure 3 initializes SEQ[st] to 0 on issue).
type Seq int64

// component is one non-zero entry of a clock vector in its unpacked
// form: the spill representation and the common currency of the
// general-case operations.
type component struct {
	t memmodel.ThreadID
	c Clock
}

// Inline packing: a component is one word, thread in the top
// threadBits bits and clock below. Thread order is word order, and a
// packed component is never zero (clocks start at 1), so an inline
// vector is a zero-terminated sorted prefix of inl.
const (
	inlineComps = 4
	threadBits  = 16
	clockBits   = 64 - threadBits
	clockMask   = 1<<clockBits - 1
)

// pack returns the packed form of (t, c) and whether it fits: 0 ≤ t <
// 2^16 and 1 ≤ c < 2^48.
func pack(t memmodel.ThreadID, c Clock) (uint64, bool) {
	if uint64(t) >= 1<<threadBits || c < 1 || uint64(c) > clockMask {
		return 0, false
	}
	return uint64(t)<<clockBits | uint64(c), true
}

func threadOf(p uint64) memmodel.ThreadID { return memmodel.ThreadID(p >> clockBits) }
func clockOf(p uint64) Clock              { return Clock(p & clockMask) }

// CV is a clock vector. The zero value is ⊥CV. A CV is a value:
// assignment copies it, operations return new vectors and never mutate
// their receivers, so a store's vector can be safely retained in the
// trace after the issuing thread's vector advances, and a CV copied out
// of a recycled trace record stays valid.
//
// The representation is canonical: a vector whose components all pack
// and number at most inlineComps is inline (spill == nil), any other
// vector is spilled. Equal relies on it.
type CV struct {
	// inl holds the packed components of an inline vector, sorted by
	// thread and zero-terminated.
	inl Words
	// spill, when non-nil, holds the whole vector instead: components
	// sorted by thread, no zero clocks. The slice is never mutated.
	spill *[]component
}

// Words is the pointer-free form of an inline vector: its packed
// components, sorted by thread and zero-terminated. A record the
// garbage collector must not scan keeps a vector as Words, and one
// that does not fit (CV.Words reports false) somewhere else.
type Words [inlineComps]uint64

// Words returns v's pointer-free form and true, or false when v is
// spilled.
func (v CV) Words() (Words, bool) { return v.inl, v.spill == nil }

// CV returns the inline vector w is the form of.
func (w Words) CV() CV { return CV{inl: w} }

// spillTag is a word no inline vector holds: a packed component's
// clock is never 0.
const spillTag = 1 << 63

// Spilled returns a Words that is the form of no vector and carries i:
// a record keeps it in place of a vector that does not fit inline and
// that it stores elsewhere, at index i. SpillIndex recovers i.
func Spilled(i uint32) Words { return Words{spillTag, uint64(i)} }

// SpillIndex returns i and true if w is Spilled(i), or false if w is
// the form of an inline vector.
func (w *Words) SpillIndex() (uint32, bool) { return uint32(w[1]), w[0] == spillTag }

// Len and Comp walk the components of the inline vector w is the form
// of in place, as CV.Len and CV.Comp do.
func (w *Words) Len() int {
	n := 0
	for n < inlineComps && w[n] != 0 {
		n++
	}
	return n
}

// Comp returns the i-th component of the inline vector w is the form
// of; see Len.
func (w *Words) Comp(i int) (memmodel.ThreadID, Clock) { return threadOf(w[i]), clockOf(w[i]) }

// Bottom returns ⊥CV, the vector that is 0 everywhere.
func Bottom() CV { return CV{} }

// view returns the vector's components in ascending thread order,
// unpacking an inline vector into buf. It allocates nothing when buf
// does not escape the caller.
func (v *CV) view(buf *[inlineComps]component) []component {
	if v.spill != nil {
		return *v.spill
	}
	n := 0
	for ; n < inlineComps && v.inl[n] != 0; n++ {
		buf[n] = component{t: threadOf(v.inl[n]), c: clockOf(v.inl[n])}
	}
	return buf[:n]
}

// fromComps builds the canonical vector for cs (sorted, no zero
// clocks), packing it inline when it fits. A spilled result takes
// ownership of cs.
func fromComps(cs []component) CV {
	var v CV
	if len(cs) <= inlineComps {
		fits := true
		for i, e := range cs {
			p, ok := pack(e.t, e.c)
			if !ok {
				fits = false
				break
			}
			v.inl[i] = p
		}
		if fits {
			return v
		}
	}
	return CV{spill: &cs}
}

// At returns the clock component for thread t (0 if absent).
func (v CV) At(t memmodel.ThreadID) Clock {
	if v.spill != nil {
		for _, e := range *v.spill {
			if e.t == t {
				return e.c
			}
			if e.t > t {
				break
			}
		}
		return 0
	}
	if uint64(t) >= 1<<threadBits {
		return 0
	}
	for _, p := range v.inl {
		if p == 0 || threadOf(p) > t {
			break
		}
		if threadOf(p) == t {
			return clockOf(p)
		}
	}
	return 0
}

// IsBottom reports whether every component is zero.
func (v CV) IsBottom() bool { return v.spill == nil && v.inl[0] == 0 }

// Join returns the component-wise maximum of v and w (the ∪ operator).
func (v CV) Join(w CV) CV {
	if w.IsBottom() {
		return v
	}
	if v.IsBottom() {
		return w
	}
	if v.Geq(w) {
		return v // common case: a thread re-reads its own recent store
	}
	if v.spill == nil && w.spill == nil {
		var out CV
		i, j, n := 0, 0, 0
		for {
			a, b := uint64(0), uint64(0)
			if i < inlineComps {
				a = v.inl[i]
			}
			if j < inlineComps {
				b = w.inl[j]
			}
			if a == 0 && b == 0 {
				return out
			}
			if n == inlineComps {
				break // more than inlineComps threads: spill
			}
			switch {
			case b == 0 || a != 0 && threadOf(a) < threadOf(b):
				out.inl[n] = a
				i++
			case a == 0 || threadOf(b) < threadOf(a):
				out.inl[n] = b
				j++
			default: // same thread: the larger word has the larger clock
				out.inl[n] = max(a, b)
				i++
				j++
			}
			n++
		}
	}
	var vb, wb [inlineComps]component
	vc, wc := v.view(&vb), w.view(&wb)
	out := make([]component, 0, len(vc)+len(wc))
	i, j := 0, 0
	for i < len(vc) && j < len(wc) {
		a, b := vc[i], wc[j]
		switch {
		case a.t == b.t:
			if b.c > a.c {
				a.c = b.c
			}
			out = append(out, a)
			i++
			j++
		case a.t < b.t:
			out = append(out, a)
			i++
		default:
			out = append(out, b)
			j++
		}
	}
	out = append(out, vc[i:]...)
	out = append(out, wc[j:]...)
	return fromComps(out)
}

// Leq reports v ≤ w: every component of v is at most the corresponding
// component of w. For two stores in the same sub-execution,
// SCV(st1) ≤ SCV(st2) means st1 happens before st2 (§3.4).
func (v CV) Leq(w CV) bool {
	if v.spill == nil && w.spill == nil {
		j := 0
		for _, a := range v.inl {
			if a == 0 {
				return true
			}
			for j < inlineComps && w.inl[j] != 0 && threadOf(w.inl[j]) < threadOf(a) {
				j++
			}
			if j == inlineComps || w.inl[j] == 0 || threadOf(w.inl[j]) != threadOf(a) || a > w.inl[j] {
				return false
			}
		}
		return true
	}
	var vb, wb [inlineComps]component
	vc, wc := v.view(&vb), w.view(&wb)
	j := 0
	for _, a := range vc {
		for j < len(wc) && wc[j].t < a.t {
			j++
		}
		if j >= len(wc) || wc[j].t != a.t || a.c > wc[j].c {
			return false
		}
	}
	return true
}

// Geq reports v ≥ w (every component of w is at most v's).
func (v CV) Geq(w CV) bool { return w.Leq(v) }

// Inc returns v with component t incremented (the incτ operator, applied
// on every store issue by thread t).
func (v CV) Inc(t memmodel.ThreadID) CV {
	return v.WithClock(t, v.At(t)+1)
}

// WithClock returns v with component t set to c. It is used when
// reconstructing vectors in tests and by Inc.
func (v CV) WithClock(t memmodel.ThreadID, c Clock) CV {
	if p, ok := pack(t, c); ok && v.spill == nil {
		// Find t's slot: replace it, or shift the tail up to insert.
		i := 0
		for i < inlineComps && v.inl[i] != 0 && threadOf(v.inl[i]) < t {
			i++
		}
		if i < inlineComps && v.inl[i] != 0 && threadOf(v.inl[i]) == t {
			v.inl[i] = p
			return v
		}
		if v.inl[inlineComps-1] == 0 {
			copy(v.inl[i+1:], v.inl[i:inlineComps-1])
			v.inl[i] = p
			return v
		}
	}
	var buf [inlineComps]component
	vc := v.view(&buf)
	out := make([]component, 0, len(vc)+1)
	placed := false
	for _, e := range vc {
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
	return fromComps(out)
}

// Threads returns the threads with non-zero components, in ascending
// order. It is the support of the vector. The returned slice is freshly
// allocated; hot paths should prefer Len and Comp.
func (v CV) Threads() []memmodel.ThreadID {
	var buf [inlineComps]component
	vc := v.view(&buf)
	ts := make([]memmodel.ThreadID, 0, len(vc))
	for _, e := range vc {
		ts = append(ts, e.t)
	}
	return ts
}

// Len returns the number of non-zero components. With Comp it walks a
// vector without allocating and without a callback:
//
//	for i, n := 0, v.Len(); i < n; i++ {
//		t, c := v.Comp(i)
//		...
//	}
func (v *CV) Len() int {
	if v.spill != nil {
		return len(*v.spill)
	}
	return v.inl.Len()
}

// Comp returns the i-th non-zero component in ascending thread order,
// for 0 ≤ i < Len().
func (v *CV) Comp(i int) (memmodel.ThreadID, Clock) {
	if v.spill != nil {
		e := (*v.spill)[i]
		return e.t, e.c
	}
	return v.inl.Comp(i)
}

// String renders the vector as {t0:3 t2:1} with threads in ascending
// order; ⊥CV renders as {}.
func (v CV) String() string {
	var b strings.Builder
	b.WriteByte('{')
	var buf [inlineComps]component
	for i, e := range v.view(&buf) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%d:%d", int(e.t), int64(e.c))
	}
	b.WriteByte('}')
	return b.String()
}

// Equal reports whether two vectors have identical components.
func (v CV) Equal(w CV) bool {
	if v.spill == nil || w.spill == nil {
		// Canonical form: an inline vector never equals a spilled one.
		return v.spill == nil && w.spill == nil && v.inl == w.inl
	}
	vc, wc := *v.spill, *w.spill
	if len(vc) != len(wc) {
		return false
	}
	for i, e := range vc {
		if wc[i] != e {
			return false
		}
	}
	return true
}
