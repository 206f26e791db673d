package persist

import (
	"repro/internal/memmodel"
	"repro/internal/trace"
)

func init() {
	registerRule(Info{
		Name:        "px86",
		Description: "Px86sim (Raad et al.): TSO buffers, async clflushopt completed by drains",
		Weak:        true,
	}, true, func(im *Image) rule { return &px86Rule{img: im} })
	registerRule(Info{
		Name:        "ptsosyn",
		Description: "PTSOsyn (Khyzha-Lahav): per-line persistence buffers with flush markers; equivalent to px86",
		Weak:        true,
	}, true, func(im *Image) rule { return &ptsosynRule{img: im} })
	registerRule(Info{
		Name:        "strict",
		Description: "strict persistency: stores persist immediately, in order (differential oracle)",
		Weak:        false,
	}, false, func(im *Image) rule { return strictRule{img: im} })
}

// registerRule registers a built-in backend: the shared machine under
// the rule newRule builds. A backend without store buffers (strict)
// ignores DelayedCommit: its stores commit at issue.
func registerRule(info Info, buffered bool, newRule func(*Image) rule) {
	Register(info, func(cfg Config) Model {
		cfg.DelayedCommit = cfg.DelayedCommit && buffered
		return newMachine(info.Name, cfg, newRule)
	})
}

// px86Rule is the Px86sim persistence rule of Raad et al. (POPL 2020),
// which the paper builds on (§2): clflush persists its line
// synchronously when it leaves the store buffer; clflushopt/clwb write
// the line back asynchronously, and only a later drain by the same
// thread guarantees it completed. The exited-but-undrained clflushopts
// are kept per thread.
type px86Rule struct {
	img     *Image
	pending perThread[pendingFlush]
}

// pendingFlush is a clflushopt that has left the store buffer but whose
// persistence is not yet guaranteed by a drain.
type pendingFlush struct {
	line     memmodel.Addr
	coverage int // line-history length at buffer exit
}

// flush: every store committed to the line so far is guaranteed.
func (r *px86Rule) flush(_ memmodel.ThreadID, line memmodel.Addr) { r.img.Guarantee(line) }

// flushOpt records the coverage (stores committed at buffer exit) that
// t's next drain guarantees.
func (r *px86Rule) flushOpt(t memmodel.ThreadID, line memmodel.Addr) {
	row := r.pending.get(t)
	row.vals = append(row.vals, pendingFlush{line: line, coverage: r.img.LiveLen(line)})
}

// drain completes t's exited clflushopts.
func (r *px86Rule) drain(t memmodel.ThreadID) {
	row := r.pending.find(t)
	if row == nil {
		return
	}
	for _, pf := range row.vals {
		r.img.GuaranteeUpTo(pf.line, pf.coverage)
	}
	row.vals = row.vals[:0]
}

func (r *px86Rule) drop() { r.pending.drop() }

// ptsosynRule is the PTSOsyn persistence rule of Khyzha & Lahav ("Taming
// x86-TSO Persistency", POPL 2021): a synchronous reformulation of Px86
// in which each cache line has its own persistence buffer (the line's
// live history in the image) and asynchronous flushes become in-buffer
// markers:
//
//   - clflush empties the line's persistence buffer at store-buffer
//     exit: everything committed so far is persistent;
//   - clflushopt deposits a marker in the line's persistence buffer at
//     the current depth; a later drain by the same thread guarantees
//     persistence up to that thread's markers;
//   - a crash discards unfulfilled markers.
//
// On this op vocabulary it guarantees exactly what px86Rule does; the
// cross-model property tests and the differential runner in
// internal/explore check that the two formulations agree.
type ptsosynRule struct {
	img *Image
	// markers holds each line's unfulfilled flush markers, keyed by line
	// index (addr>>6). Rows are reused across resets like every other
	// paged table. marked lists the rows that may hold markers, so a
	// drain visits those lines only, not every line ever flushed.
	markers trace.Table[markerRow]
	marked  []*markerRow
}

// marker is an unfulfilled clflushopt sitting in a line's persistence
// buffer: thread t asked the line to persist up to depth pos.
type marker struct {
	t   memmodel.ThreadID
	pos int
}

// markerRow is one line's persistence-buffer markers, oldest first.
// listed tells whether the row is on the marked-line list.
type markerRow struct {
	line   memmodel.Addr
	mks    []marker
	listed bool
}

// rowOf returns the marker row of line, emptied if the line had none in
// the current generation.
func (r *ptsosynRule) rowOf(line memmodel.Addr) *markerRow {
	row, ok := r.markers.Slot(uint64(line) >> 6)
	if !ok {
		row.line = line
		row.mks = row.mks[:0]
		row.listed = false
	}
	return row
}

// flush persists the whole committed history, which trivially fulfils
// every pending marker of the line. The emptied row stays listed until
// the next drain drops it.
func (r *ptsosynRule) flush(_ memmodel.ThreadID, line memmodel.Addr) {
	r.img.Guarantee(line)
	row := r.rowOf(line)
	row.mks = row.mks[:0]
}

func (r *ptsosynRule) flushOpt(t memmodel.ThreadID, line memmodel.Addr) {
	row := r.rowOf(line)
	row.mks = append(row.mks, marker{t: t, pos: r.img.LiveLen(line)})
	if !row.listed {
		row.listed = true
		r.marked = append(r.marked, row)
	}
}

// drain fulfils t's markers in every listed line: the line is
// guaranteed persistent at least up to each marker's depth. The
// guarantee is a running maximum, so the order lines are visited in is
// immaterial. Rows left empty leave the list.
func (r *ptsosynRule) drain(t memmodel.ThreadID) {
	listed := r.marked[:0]
	for _, row := range r.marked {
		kept := row.mks[:0]
		for _, mk := range row.mks {
			if mk.t == t {
				r.img.GuaranteeUpTo(row.line, mk.pos)
			} else {
				kept = append(kept, mk)
			}
		}
		row.mks = kept
		if len(kept) > 0 {
			listed = append(listed, row)
		} else {
			row.listed = false
		}
	}
	clear(r.marked[len(listed):])
	r.marked = listed
}

// drop discards every unfulfilled marker; the rows stay in the table.
func (r *ptsosynRule) drop() {
	r.markers.Reset()
	clear(r.marked)
	r.marked = r.marked[:0]
}

// strictRule is strict persistency: every store becomes persistent the
// moment it commits, in commit order, as if the persistence domain
// extended to the cache. It is the paper's robustness reference — a
// program is robust exactly when its post-crash behaviors under the
// weak model are behaviors it already has under strict persistency —
// and doubles as a differential oracle: every post-crash load has
// exactly one candidate (every sealed epoch has lo = hi = len), so a
// robust program computes the same final heap here as under px86, and
// the checker reports no violations for any program. Flushes and fences
// are still recorded in the trace, for the checker, but there is
// nothing left for them to persist.
type strictRule struct{ img *Image }

func (r strictRule) committed(st *trace.Store)               { r.img.Guarantee(st.Addr) }
func (strictRule) flush(memmodel.ThreadID, memmodel.Addr)    {}
func (strictRule) flushOpt(memmodel.ThreadID, memmodel.Addr) {}
func (strictRule) drain(memmodel.ThreadID)                   {}
func (strictRule) drop()                                     {}
