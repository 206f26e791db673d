package trace

import (
	"fmt"
	"io"

	"repro/internal/memmodel"
)

// Dump writes a human-readable listing of the execution — the trace a
// developer would otherwise inspect by hand to localize a bug (§4: such
// traces "can contain millions of operations"; PSan's reports point
// into them). Sub-executions are numbered from 1 as in the paper's
// e1 C1 e2 ... notation. On a bounded-window trace only the retained
// tail is listed: retired slots (released to the arenas) are skipped behind
// a banner, and sub-execution numbering accounts for crashes that were
// retired with them.
func (tr *Trace) Dump(w io.Writer) {
	retired := tr.retiredStats()
	sub := retired.Crashes
	if tr.eventFloor > 0 {
		fmt.Fprintf(w, "... %d events retired (window %d); listing resumes at event %d ...\n",
			retired.Events, tr.window, tr.eventFloor)
	}
	fmt.Fprintf(w, "=== sub-execution e%d ===\n", sub+1)
	for _, ev := range tr.events[tr.eventFloor-tr.eventBase:] {
		if ev == nil {
			continue
		}
		ev.CheckLive()
		ev.Store.CheckLive()
		ev.RF.CheckLive()
		if ev.Kind == memmodel.OpCrash {
			sub++
			fmt.Fprintf(w, "--- crash C%d ---\n=== sub-execution e%d ===\n", sub, sub+1)
			continue
		}
		fmt.Fprintf(w, "%5d  t%-2d %-10s", ev.Index, int(ev.Thread), ev.Kind)
		switch {
		case ev.Store != nil:
			fmt.Fprintf(w, " %s = %-6d clk=%-3d seq=%-3d", ev.Addr, uint64(ev.Value), int64(ev.Store.Clock), int64(ev.Store.Seq))
		case ev.RF != nil:
			from := "init"
			if !ev.RF.Initial {
				from = fmt.Sprintf("e%d clk%d", ev.RF.SubExec+1, int64(ev.RF.Clock))
			}
			fmt.Fprintf(w, " %s -> %-6d rf=%s", ev.Addr, uint64(ev.Value), from)
		case ev.Kind == memmodel.OpFlush || ev.Kind == memmodel.OpFlushOpt:
			fmt.Fprintf(w, " line %s", ev.Addr)
		}
		if ev.Loc != NoLoc {
			fmt.Fprintf(w, "  ; %s", tr.LocString(ev.Loc))
		}
		fmt.Fprintln(w)
	}
}

// Stats summarizes an execution trace. On a bounded-window trace the
// per-kind counts still cover the WHOLE execution (retired events are
// folded in from the retirement totals, so they match an unbounded run
// of the same schedule), while the Retained/Retired fields split the
// totals into what is still resident versus what the window released.
type Stats struct {
	Events, Stores, Loads, Flushes, Fences, RMWs, Crashes int

	// Retirements counts completed window sweeps (0: unbounded trace;
	// all the remaining fields are zero in that case and the segment
	// suffix is omitted from String()).
	Retirements int
	// RetainedEvents/RetiredEvents and RetainedStores/RetiredStores
	// partition the execution's records into resident vs released.
	RetainedEvents, RetiredEvents int
	RetainedStores, RetiredStores int
	// RetainedBytes/RetiredBytes estimate the record memory on each
	// side of the frontier (records only; index spines excluded).
	RetainedBytes, RetiredBytes int64
}

// Stats computes summary counts over the event log without touching
// released memory: retired slots are nil holes that the walk skips, and
// their kind counts come from the totals the sweeps accumulated.
func (tr *Trace) Stats() Stats {
	s := tr.retiredStats()
	retiredEvents := s.Events
	s.Events = tr.eventBase + len(tr.events)
	retainedStores := 0
	for _, ev := range tr.events[tr.eventFloor-tr.eventBase:] {
		if ev == nil {
			continue
		}
		if ev.Store != nil {
			retainedStores++
		}
		switch ev.Kind {
		case memmodel.OpStore:
			s.Stores++
		case memmodel.OpLoad:
			s.Loads++
		case memmodel.OpFlush, memmodel.OpFlushOpt:
			s.Flushes++
		case memmodel.OpSFence, memmodel.OpMFence:
			s.Fences++
		case memmodel.OpCAS, memmodel.OpFAA:
			s.RMWs++
		case memmodel.OpCrash:
			s.Crashes++
		}
	}
	if tr.retirements > 0 {
		s.Retirements = tr.retirements
		s.RetainedEvents = tr.eventBase + len(tr.events) - tr.eventFloor
		s.RetiredEvents = retiredEvents
		s.RetainedStores = retainedStores + len(tr.initList)
		s.RetiredStores = tr.retiredStores
		s.RetainedBytes = int64(s.RetainedEvents)*eventBytes + int64(s.RetainedStores)*storeBytes
		s.RetiredBytes = int64(s.RetiredEvents)*eventBytes + int64(s.RetiredStores)*storeBytes
	}
	return s
}

// String renders the stats on one line; a segmented (windowed) trace
// appends the retained/retired split so long-trace runs can see what
// the frontier released. Unbounded traces render exactly as before.
func (s Stats) String() string {
	base := fmt.Sprintf("%d events: %d stores, %d loads, %d flushes, %d fences, %d RMWs, %d crashes",
		s.Events, s.Stores, s.Loads, s.Flushes, s.Fences, s.RMWs, s.Crashes)
	if s.Retirements == 0 {
		return base
	}
	return fmt.Sprintf("%s | %d retirements: %d events/%d stores retained (%d B), %d events/%d stores retired (%d B)",
		base, s.Retirements, s.RetainedEvents, s.RetainedStores, s.RetainedBytes,
		s.RetiredEvents, s.RetiredStores, s.RetiredBytes)
}
