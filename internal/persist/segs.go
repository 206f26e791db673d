package persist

import (
	"math/bits"
	"slices"
)

// The crash image keeps its sealed epochs, histories and word indexes
// in the pools below, addressed by int32 offsets rather than pointers,
// and its histories hold trace.StoreRef handles: none of it is memory
// the garbage collector has to scan, however long an execution runs
// (TestRetainedRecordsArePointerFree).

// seg is a growable array carved from a segs pool: n elements in use at
// buf[off:off+n], of a capacity c (a power of two, 0 while none is
// held).
type seg struct {
	off, n, c int32
}

// segs is a pool of growable arrays of T carved from one backing
// slice, each named by a seg. A seg that outgrows its capacity moves to
// one twice as large, and the old one goes to a free list by size, so a
// pool stops growing at the high-water mark of what its segs hold. A
// view of a seg is valid only until the next push to the pool.
type segs[T any] struct {
	buf  []T
	free [32][]int32 // released offsets, by log2 of their capacity
}

// view returns s's elements.
func (p *segs[T]) view(s seg) []T { return p.buf[s.off : s.off+s.n] }

// push appends v to s.
func (p *segs[T]) push(s *seg, v T) {
	if s.n == s.c {
		p.grow(s)
	}
	p.buf[s.off+s.n] = v
	s.n++
}

// grow moves s to a seg of twice its capacity (1 at first).
func (p *segs[T]) grow(s *seg) {
	c := max(1, 2*s.c)
	lg := bits.Len32(uint32(c)) - 1
	var off int32
	if k := len(p.free[lg]); k > 0 {
		off = p.free[lg][k-1]
		p.free[lg] = p.free[lg][:k-1]
	} else {
		off = int32(len(p.buf))
		p.buf = slices.Grow(p.buf, int(c))[:len(p.buf)+int(c)]
	}
	n := s.n
	copy(p.buf[off:off+n], p.view(*s))
	p.release(s)
	*s = seg{off: off, n: n, c: c}
}

// release returns s's array to the free list and empties s.
func (p *segs[T]) release(s *seg) {
	if s.c > 0 {
		lg := bits.Len32(uint32(s.c)) - 1
		p.free[lg] = append(p.free[lg], s.off)
	}
	*s = seg{}
}
