package core

import (
	"slices"

	"repro/internal/memmodel"
)

// Snapshot is the checker's restorable state at a crash boundary:
// constraint intervals, the violation dedup set, deferred checksum
// loads, and the committed violation list. Interval endpoints and
// deferred loads reference prefix trace stores, which the explorer's
// trace rewind leaves untouched, so a snapshot stays valid for as long
// as its trace mark does.
type Snapshot struct {
	cons       [][]consEntry
	seen       []bool
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
		seen:     slices.Clone(c.seen),
		deferred: make(map[memmodel.ThreadID][]deferredLoad, len(c.deferred)),
	}
	flat := make([]consEntry, 0, c.numCons())
	for i, row := range c.cons {
		start := len(flat)
		flat = append(flat, row...)
		s.cons[i] = flat[start:len(flat):len(flat)]
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
// instead of truncating it). The applied-read stamp moves: the trace was
// rewound and the intervals widened. Cached known-key answers stay valid.
func (c *Checker) Restore(s *Snapshot) {
	c.cons = c.cons[:0]
	c.growRows(len(s.cons))
	for i, row := range s.cons {
		c.cons[i] = append(c.cons[i], row...)
	}
	c.seen = append(c.seen[:0], s.seen...)
	clear(c.deferred)
	for t, dl := range s.deferred {
		c.deferred[t] = dl
	}
	c.violations = s.violations
	c.nextStamp()
}

// numCons returns the number of committed crash intervals.
func (c *Checker) numCons() int {
	n := 0
	for _, row := range c.cons {
		n += len(row)
	}
	return n
}
