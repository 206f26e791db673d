package trace

import "math"

// Paged address tables: the per-word and per-line indexes of the
// simulator (a sub-execution's committed stores per word, the initial
// stores, the crash image's line states) without a Go map on the
// per-op path.

const (
	tablePageBits = 6
	tablePageSize = 1 << tablePageBits
	tablePageMask = tablePageSize - 1
)

// tablePage holds the values of 64 consecutive keys. stamp[i] tells
// whether vals[i] belongs to the current generation; gen is the newest
// generation that stamped any slot, so Each can skip a page no slot of
// the current generation lives in.
type tablePage[V any] struct {
	base  uint64 // key >> tablePageBits
	gen   uint32
	stamp [tablePageSize]uint32
	vals  [tablePageSize]V
}

// Table maps uint64 keys — addr>>3 for words, addr>>6 for lines — to
// values, paged 64 keys to a page. A small open-addressed directory
// finds a key's page, with a one-page cache in front for the runs of
// nearby keys the simulator produces. Any 64-bit key works: there is
// no flat array to size and no fallback map.
//
// Every slot carries a generation stamp, so Reset is one increment: a
// slot stamped by an older generation reads as absent. Its value is
// not cleared, though — Slot hands it back, so a slice's backing array
// or a pointed-to record is reused when the key reappears. Pages are
// allocated on first use and kept for the table's lifetime.
//
// The zero Table is empty and ready to use. A Table is not safe for
// concurrent use.
type Table[V any] struct {
	// gen counts completed generations; slots of the current one carry
	// stamp gen+1, so the zero stamp of a fresh page is never live.
	gen   uint32
	pages []*tablePage[V] // creation order
	// dir is the open-addressed directory: 1 + an index into pages, or 0
	// for an empty bucket. Its length is a power of two, at least twice
	// len(pages).
	dir  []int32
	last *tablePage[V]
}

// cur is the stamp of the current generation.
func (t *Table[V]) cur() uint32 { return t.gen + 1 }

// bucket is the directory's home bucket for a page base.
func (t *Table[V]) bucket(base uint64) int {
	return int((base * 0x9e3779b97f4a7c15) >> 32 & uint64(len(t.dir)-1))
}

// find returns the page holding key, or nil.
func (t *Table[V]) find(key uint64) *tablePage[V] {
	base := key >> tablePageBits
	if p := t.last; p != nil && p.base == base {
		return p
	}
	if len(t.dir) == 0 {
		return nil
	}
	mask := len(t.dir) - 1
	for i := t.bucket(base); ; i = (i + 1) & mask {
		d := t.dir[i]
		if d == 0 {
			return nil
		}
		if p := t.pages[d-1]; p.base == base {
			t.last = p
			return p
		}
	}
}

// page returns the page holding key, allocating it on first use.
func (t *Table[V]) page(key uint64) *tablePage[V] {
	if p := t.find(key); p != nil {
		return p
	}
	if 2*(len(t.pages)+1) > len(t.dir) {
		t.grow()
	}
	p := &tablePage[V]{base: key >> tablePageBits}
	t.pages = append(t.pages, p)
	t.insert(p.base, int32(len(t.pages)))
	t.last = p
	return p
}

// insert files directory entry d under base.
func (t *Table[V]) insert(base uint64, d int32) {
	mask := len(t.dir) - 1
	i := t.bucket(base)
	for t.dir[i] != 0 {
		i = (i + 1) & mask
	}
	t.dir[i] = d
}

// grow doubles the directory (8 buckets at first) and refiles every page.
func (t *Table[V]) grow() {
	n := 2 * len(t.dir)
	if n == 0 {
		n = 8
	}
	t.dir = make([]int32, n)
	for i, p := range t.pages {
		t.insert(p.base, int32(i+1))
	}
}

// Get returns key's value and true, or the zero value and false when the
// key is absent in the current generation.
func (t *Table[V]) Get(key uint64) (V, bool) {
	if p := t.find(key); p != nil {
		if i := key & tablePageMask; p.stamp[i] == t.cur() {
			return p.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// Slot returns a pointer to key's value, making the key present. It
// reports whether the key was already present; when it was not, the
// value is whatever the slot last held (the zero value for a slot never
// used), for the caller to reinitialize or reuse. Pages never move, so
// the pointer stays valid.
func (t *Table[V]) Slot(key uint64) (*V, bool) {
	p := t.page(key)
	i := key & tablePageMask
	if c := t.cur(); p.stamp[i] != c {
		p.stamp[i] = c
		p.gen = c
		return &p.vals[i], false
	}
	return &p.vals[i], true
}

// Delete makes key absent. Like Reset, it keeps the slot's value for
// reuse by a later Slot.
func (t *Table[V]) Delete(key uint64) {
	if p := t.find(key); p != nil {
		p.stamp[key&tablePageMask] = 0
	}
}

// Reset makes every key absent in O(1): it starts a new generation.
// When the generation counter would wrap, every stamp is cleared once.
func (t *Table[V]) Reset() {
	if t.gen == math.MaxUint32-1 {
		for _, p := range t.pages {
			p.stamp = [tablePageSize]uint32{}
			p.gen = 0
		}
		t.gen = 0
		return
	}
	t.gen++
}

// Each calls f on every present key and its value, page by page in
// page-creation order and by key within a page. f must not call Slot.
func (t *Table[V]) Each(f func(key uint64, v *V)) {
	c := t.cur()
	for _, p := range t.pages {
		if p.gen != c {
			continue
		}
		for i := range p.stamp {
			if p.stamp[i] == c {
				f(p.base<<tablePageBits|uint64(i), &p.vals[i])
			}
		}
	}
}
