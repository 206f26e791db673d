package core

import (
	"repro/internal/memmodel"
	"repro/internal/trace"
)

// computeFixes synthesizes the repair suggestions of §5.2 for a
// diagnosed violation: per-thread flush+drain insertion windows (the
// window in the thread of the store missing the flush is the primary
// fix), plus a cache-line colocation alternative.
//
// A window for thread τ starts at the first operation of τ that happens
// after the missing-flush store and ends at the last operation of τ that
// happens before the persisted store. Happens-before between an
// operation and a store is approximated by comparing the operation's
// clock vector with the store's, which is exact for operations in the
// two stores' own threads — the cases the paper distinguishes.
//
// It runs at record time, on the frozen store copies; window boundaries
// are materialized as label strings so the resulting Fix outlives the
// trace. Unbounded, the detecting execution's trace is still intact
// then. Under a window the scan sees only the sub-execution's events
// the window retains, so a window's start or end can move to a later
// retained event, or a thread's window can go missing: windowed fix
// suggestions can differ from unbounded ones.
func (c *Checker) computeFixes(v *Violation) []Fix {
	mf, p := v.MissingFlush, v.Persisted
	if mf == nil || p == nil || mf.ID == p.ID || mf.Initial || p.Initial {
		return nil
	}
	// One pass over the sub-execution's events builds every candidate
	// thread's window at once. Candidates are the missing-flush store's
	// own thread first (its window is the primary fix), then every other
	// thread with events in the sub-execution, in order of first event.
	ws := []fixWindow{{tau: mf.Thread}}
	c.tr.EachSubEvent(mf.SubExec, func(ev *trace.Event) {
		if ev.Thread == memmodel.NoThread {
			return
		}
		ev.Store.CheckLive()
		i := 0
		for i < len(ws) && ws[i].tau != ev.Thread {
			i++
		}
		if i == len(ws) {
			ws = append(ws, fixWindow{tau: ev.Thread})
		}
		ws[i].observe(ev, mf, p)
	})
	var fixes []Fix
	for i := range ws {
		if fix, ok := c.flushWindow(&ws[i], mf, p); ok {
			fix.Primary = ws[i].tau == mf.Thread
			fixes = append(fixes, fix)
		}
	}
	// Layout alternative: make the two stores share a cache line so
	// their persist order follows TSO automatically.
	if !memmodel.SameLine(mf.Addr, p.Addr) {
		fixes = append(fixes, Fix{Kind: FixColocate, AfterLoc: mf.Loc, BeforeLoc: p.Loc})
	}
	return fixes
}

// fixWindow is one thread's flush-window scan state in computeFixes:
// start is the thread's first operation that happens after mf, end its
// last operation from start on that happens before p, and after the
// operation following end (nil while none has been seen).
type fixWindow struct {
	tau               memmodel.ThreadID
	start, end, after *trace.Event
}

// observe feeds the window the thread's next operation in program order.
func (w *fixWindow) observe(ev *trace.Event, mf, p *StoreRef) {
	if w.start == nil {
		if ev.Store != nil && ev.Store.ID == mf.ID || !mf.CV.Leq(ev.CV) {
			return // the window starts strictly after mf, at an hb-later op
		}
		w.start = ev
	}
	if ev.CV.Leq(p.CV) {
		w.end, w.after = ev, nil
	} else if w.end != nil && w.after == nil {
		w.after = ev
	}
}

// flushWindow turns a thread's scanned window into its flush insertion
// fix, if one exists: a range of the thread's operations that happen
// after mf and before p.
func (c *Checker) flushWindow(w *fixWindow, mf, p *StoreRef) (Fix, bool) {
	tau := w.tau
	if tau == mf.Thread && tau == p.Thread {
		// Single-thread case: the window is simply between the two
		// stores in program order; it exists even when mf is the
		// thread's last event.
		return Fix{Kind: FixInsertFlush, Thread: tau, AfterLoc: mf.Loc, BeforeLoc: p.Loc}, true
	}
	if w.start == nil {
		// No operation of tau happens after mf: the thread stopped (or
		// never observed the store) — the Figure 7 empty-window case.
		return Fix{}, false
	}
	if tau == p.Thread {
		// Operations of p's own thread before p are hb-before p by
		// program order; anchor the window end at p itself.
		return Fix{Kind: FixInsertFlush, Thread: tau, AfterLoc: c.evLoc(w.start), BeforeLoc: p.Loc}, true
	}
	if w.end == nil {
		return Fix{}, false
	}
	before := ""
	if w.after != nil {
		before = c.evLoc(w.after)
	}
	return Fix{Kind: FixInsertFlush, Thread: tau, AfterLoc: c.evLoc(w.start), BeforeLoc: before}, true
}

// evLoc materializes an event's interned label.
func (c *Checker) evLoc(ev *trace.Event) string { return c.tr.LocString(ev.Loc) }
