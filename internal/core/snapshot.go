package core

import (
	"sort"

	"repro/internal/intervals"
	"repro/internal/memmodel"
	"repro/internal/trace"
)

// Snapshot is the checker's restorable state at a crash boundary:
// constraint intervals, the violation dedup set, deferred checksum
// loads, and the committed violation list. Interval endpoints and
// deferred loads reference prefix trace stores, which the explorer's
// trace rewind leaves untouched, so a snapshot stays valid for as long
// as its trace mark does.
type Snapshot struct {
	cons       [][]consEntry
	seen       map[violationKey]bool
	deferred   map[memmodel.ThreadID][]deferredLoad
	violations []*Violation
}

// Snapshot captures the checker's state for later Restores. The
// constraint rows are copied into one backing array, which Restore
// copies back out of, so the checker's own rows never alias it. The
// other copied slices are allocated with capacity equal to length, so
// appends after a Restore always reallocate instead of scribbling on the
// shared backing arrays.
func (c *Checker) Snapshot() *Snapshot {
	s := &Snapshot{
		cons:     make([][]consEntry, len(c.cons)),
		seen:     make(map[violationKey]bool, len(c.seen)),
		deferred: make(map[memmodel.ThreadID][]deferredLoad, len(c.deferred)),
	}
	flat := make([]consEntry, 0, c.numCons())
	for i, row := range c.cons {
		start := len(flat)
		flat = append(flat, row...)
		s.cons[i] = flat[start:len(flat):len(flat)]
	}
	for k := range c.seen {
		s.seen[k] = true
	}
	for t, dl := range c.deferred {
		cp := make([]deferredLoad, len(dl))
		copy(cp, dl)
		s.deferred[t] = cp
	}
	s.violations = make([]*Violation, len(c.violations))
	copy(s.violations, c.violations)
	return s
}

// Restore rewinds the checker to a previously captured Snapshot. The
// violation list is restored by slice-header assignment: the snapshot
// copy has no spare capacity, so the next append reallocates and
// violations retained by the harness from executions since the snapshot
// are never overwritten in place (the same reason Reset drops the slice
// instead of truncating it).
func (c *Checker) Restore(s *Snapshot) {
	c.cons = c.cons[:0]
	c.growRows(len(s.cons))
	for i, row := range s.cons {
		c.cons[i] = append(c.cons[i], row...)
	}
	clear(c.seen)
	for k := range s.seen {
		c.seen[k] = true
	}
	clear(c.deferred)
	for t, dl := range s.deferred {
		c.deferred[t] = dl
	}
	c.violations = s.violations
}

// StateFingerprint hashes everything about the checker's state that can
// influence the remainder of an execution: the constraint intervals with
// their provenance, the violation dedup set, and any deferred checksum
// loads. Two checkers with equal fingerprints (over the same trace)
// commit the same future constraints and report the same future
// violation keys. The explorer uses this as one component of its
// partial-order-reduction key; see DESIGN.md.
//
// Intervals are hashed in (sub-execution, thread) order. Locations are
// folded in by label *string*, not LocID, and the violation set is
// sorted by string too: LocIDs are private to one interner, and the
// fingerprint must agree between worlds (and between processes — DPOR
// registrations ride in checkpoints) that reached the same state along
// different interning histories. Store IDs are safe as numbers: a trace
// reset rewinds them, so they depend only on the execution's decision
// path.
func (c *Checker) StateFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	in := c.tr.Interner()
	mixLoc := func(id trace.LocID) {
		s := in.Str(id)
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	endpoint := func(e intervals.Endpoint) {
		mix(uint64(e.Clock))
		if s, ok := e.Store.(*trace.Store); ok && s != nil {
			mix(uint64(s.ID))
			mixLoc(s.Loc)
		} else {
			mix(^uint64(0))
		}
	}

	// The rows are already in (sub-execution, thread) order.
	mix(uint64(c.numCons()))
	for sub, row := range c.cons {
		for _, e := range row {
			mix(uint64(sub))
			mix(uint64(int64(e.thread)))
			endpoint(e.iv.Lo)
			endpoint(e.iv.Hi)
		}
	}

	seenKeys := make([]violationKey, 0, len(c.seen))
	for k := range c.seen {
		seenKeys = append(seenKeys, k)
	}
	sort.Slice(seenKeys, func(i, j int) bool {
		a, b := seenKeys[i], seenKeys[j]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if as, bs := in.Str(a.mfLoc), in.Str(b.mfLoc); as != bs {
			return as < bs
		}
		return in.Str(a.perLoc) < in.Str(b.perLoc)
	})
	mix(uint64(len(seenKeys)))
	for _, k := range seenKeys {
		mix(uint64(k.kind))
		mixLoc(k.mfLoc)
		mixLoc(k.perLoc)
	}

	threads := make([]memmodel.ThreadID, 0, len(c.deferred))
	for t := range c.deferred {
		threads = append(threads, t)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
	mix(uint64(len(threads)))
	for _, t := range threads {
		mix(uint64(int64(t)))
		dls := c.deferred[t]
		mix(uint64(len(dls)))
		for _, dl := range dls {
			mix(uint64(int64(dl.thread)))
			mix(uint64(dl.addr))
			if dl.rf != nil {
				mix(uint64(dl.rf.ID))
			} else {
				mix(^uint64(0))
			}
			mixLoc(dl.loc)
		}
	}
	return h
}

// numCons returns the number of committed crash intervals.
func (c *Checker) numCons() int {
	n := 0
	for _, row := range c.cons {
		n += len(row)
	}
	return n
}
