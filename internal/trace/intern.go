package trace

import "unsafe"

// LocID is an interned source-location label. Events, violation keys,
// and fix windows compare locations by LocID; the string is materialized
// only when a report is rendered. IDs are dense and private to one
// Interner (one exploration world): the same label may receive different
// IDs in different worlds, so cross-world identity must go through the
// string form.
type LocID int32

// NoLoc is the LocID of the empty label.
const NoLoc LocID = 0

// Interner maps source-location labels to dense LocIDs and back. The
// zero value is not ready for use; it is created by trace.New and shared
// by everything attached to that trace. An Interner survives Trace.Reset
// so labels keep their IDs across the executions of one reused world —
// nothing observable depends on the numeric values, only on within-world
// consistency.
//
// Ports pass string literals, and interp passes labels it built once at
// parse time, so one call site hands Intern the same string data on
// every operation. A small direct-mapped cache keyed by that data's
// address answers those calls without hashing the label: a slot hit is
// a string comparison, O(1) when the pointers match. The comparison is
// by content, so a label rebuilt at another address still gets its ID
// (from the slot when it collides there, else from the map), and since
// the slot holds its string, the address it was filed under cannot be
// freed and reused for another label while it sits there.
type Interner struct {
	ids   map[string]LocID
	strs  []string
	cache [internSlots]internSlot
}

// internSlotBits sizes the Interner's label cache.
const (
	internSlotBits = 8
	internSlots    = 1 << internSlotBits
)

// internSlot caches one label's ID. The zero slot maps "" to NoLoc.
type internSlot struct {
	s  string
	id LocID
}

// slotOf picks s's cache slot by hashing the address of its bytes.
func slotOf(s string) int {
	p := uint64(uintptr(unsafe.Pointer(unsafe.StringData(s))))
	return int((p * 0x9e3779b97f4a7c15) >> (64 - internSlotBits))
}

// NewInterner returns an interner holding only the empty label (NoLoc).
func NewInterner() *Interner {
	return &Interner{
		ids:  map[string]LocID{"": NoLoc},
		strs: []string{""},
	}
}

// Intern returns the LocID for s, assigning the next dense ID on first
// sight. It never allocates for labels already seen, and a cache hit
// does not hash s.
func (in *Interner) Intern(s string) LocID {
	slot := &in.cache[slotOf(s)]
	if slot.s == s {
		return slot.id
	}
	id, ok := in.ids[s]
	if !ok {
		id = LocID(len(in.strs))
		in.ids[s] = id
		in.strs = append(in.strs, s)
	}
	*slot = internSlot{s: s, id: id}
	return id
}

// Str returns the label for id. NoLoc maps to "".
func (in *Interner) Str(id LocID) string { return in.strs[id] }

// Len returns the number of distinct labels interned (including "").
func (in *Interner) Len() int { return len(in.strs) }
