package trace

// arenaChunk is the number of records per arena chunk. Chunks are never
// freed: a run's arenas grow to the high-water mark of one execution and
// then stop allocating entirely.
const arenaChunk = 256

// arena is a chunked allocator for trace records. alloc returns a
// pointer to a zeroed T; reset recycles every record in O(chunks used)
// while keeping the chunks. Pointers returned before a reset must not be
// retained across it — the checker freezes any store it reports into a
// violation for exactly this reason.
//
// A bounded-window trace also hands single records back before Reset:
// the owner pushes a record it releases on free (zeroing it then, or
// when alloc hands it out again), and alloc reuses free slots before
// bumping the cursor, so a windowed execution's arenas stop growing at
// the window's live high-water mark.
type arena[T any] struct {
	chunks [][]T
	ci     int  // index of the chunk currently being filled
	n      int  // records used in chunk ci
	free   []*T // released records, reused last-in first-out
}

func (a *arena[T]) alloc() *T {
	if k := len(a.free); k > 0 {
		p := a.free[k-1]
		a.free = a.free[:k-1]
		return p
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	p := &a.chunks[a.ci][a.n]
	a.n++
	if a.n == arenaChunk {
		a.ci++
		a.n = 0
	}
	return p
}

// arenaMark is a position in an arena captured by mark and restored by
// rewind.
type arenaMark struct {
	ci, n int
}

// mark captures the arena's current allocation cursor.
func (a *arena[T]) mark() arenaMark { return arenaMark{ci: a.ci, n: a.n} }

// rewind returns the arena to a previously captured mark, zeroing every
// record allocated since the mark. Zeroing is required: alloc hands out
// records without clearing them, relying on the invariant that
// everything beyond the cursor is zero.
func (a *arena[T]) rewind(m arenaMark) {
	var zero T
	for ci := m.ci; ci <= a.ci && ci < len(a.chunks); ci++ {
		c := a.chunks[ci]
		lo, hi := 0, len(c)
		if ci == m.ci {
			lo = m.n
		}
		if ci == a.ci {
			hi = a.n
		}
		for j := lo; j < hi; j++ {
			c[j] = zero
		}
	}
	a.ci, a.n = m.ci, m.n
}

// release returns p to the free list; the owner zeroes it, before the
// call or when alloc returns it again.
func (a *arena[T]) release(p *T) { a.free = append(a.free, p) }

// reset zeroes the used prefix (so recycled records start out as if
// freshly allocated), empties the free list and rewinds the arena.
func (a *arena[T]) reset() {
	a.free = a.free[:0]
	var zero T
	for i := 0; i < a.ci; i++ {
		c := a.chunks[i]
		for j := range c {
			c[j] = zero
		}
	}
	if a.ci < len(a.chunks) {
		c := a.chunks[a.ci]
		for j := 0; j < a.n; j++ {
			c[j] = zero
		}
	}
	a.ci, a.n = 0, 0
}
