package trace

// arenaShift sets the number of records per arena chunk, 1<<arenaShift.
// Chunks are never freed: a run's arenas grow to the high-water mark of
// one execution and then stop allocating entirely.
const (
	arenaShift = 8
	arenaChunk = 1 << arenaShift
	arenaMask  = arenaChunk - 1
)

// arena is a chunked allocator for trace records. Records are named by
// slot: slot i is record i%arenaChunk of chunk i/arenaChunk, and since
// chunks never move, a slot's address is fixed for the arena's
// lifetime. alloc returns a zeroed T and its slot; reset recycles every
// record in O(chunks used) while keeping the chunks. Pointers and slots
// returned before a reset must not be retained across it — the checker
// freezes any store it reports into a violation for exactly this
// reason.
//
// A bounded-window trace also hands single records back before Reset:
// the owner pushes a slot it releases on free (zeroing the record then,
// or when alloc hands it out again), and alloc reuses free slots before
// bumping the cursor, so a windowed execution's arenas stop growing at
// the window's live high-water mark. The free list holds slots, not
// pointers: an arena of pointer-free records is memory the garbage
// collector never scans.
type arena[T any] struct {
	chunks []*[arenaChunk]T
	next   int32   // slots below next have been handed out by the cursor
	free   []int32 // released slots, reused last-in first-out
}

// at returns slot i's record.
func (a *arena[T]) at(i int32) *T { return &a.chunks[i>>arenaShift][i&arenaMask] }

func (a *arena[T]) alloc() (int32, *T) {
	if k := len(a.free); k > 0 {
		i := a.free[k-1]
		a.free = a.free[:k-1]
		return i, a.at(i)
	}
	i := a.next
	if int(i>>arenaShift) == len(a.chunks) {
		a.chunks = append(a.chunks, new([arenaChunk]T))
	}
	a.next++
	return i, a.at(i)
}

// arenaMark is a position in an arena captured by mark and restored by
// rewind.
type arenaMark struct {
	next int32
}

// mark captures the arena's current allocation cursor.
func (a *arena[T]) mark() arenaMark { return arenaMark{next: a.next} }

// rewind returns the arena to a previously captured mark, zeroing every
// record allocated since the mark. Zeroing is required: alloc hands out
// records without clearing them, relying on the invariant that
// everything beyond the cursor is zero.
func (a *arena[T]) rewind(m arenaMark) {
	a.zero(m.next, a.next)
	a.next = m.next
}

// zero clears the records in slots [lo, hi).
func (a *arena[T]) zero(lo, hi int32) {
	for lo < hi {
		c := a.chunks[lo>>arenaShift]
		end := min(hi-lo+lo&arenaMask, arenaChunk)
		clear(c[lo&arenaMask : end])
		lo += end - lo&arenaMask
	}
}

// release returns slot i to the free list; the owner zeroes its
// record, before the call or when alloc returns it again.
func (a *arena[T]) release(i int32) { a.free = append(a.free, i) }

// reset zeroes the used prefix (so recycled records start out as if
// freshly allocated), empties the free list and rewinds the arena.
func (a *arena[T]) reset() {
	a.free = a.free[:0]
	a.zero(0, a.next)
	a.next = 0
}
