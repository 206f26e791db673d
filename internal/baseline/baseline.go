// Package baseline reimplements the ordering-bug detection approaches of
// the tools PSan is compared against (Table 1 and §6.4):
//
//   - AssertOracle — the Jaaru/Yat approach: a bug exists only when the
//     program crashes or an assertion fails; localization is manual.
//   - Witcher — a dependence-heuristic checker in the spirit of Witcher:
//     it infers likely persistence-ordering constraints from data and
//     control dependence between post-crash reads and flags crash states
//     that break them. It has no notion of equivalence to strict
//     persistency, so it misses violations whose evidence does not
//     arrive as a fresh-read-then-stale-read dependence chain (the
//     paper's Figure 7 shape among them).
//   - Pmemcheck — the pmemcheck/Agamotto approach: report stores that
//     were not flushed by the time of the crash, with no ordering check
//     at all; noisy on intentionally-unflushed data.
//
// All three run on the same recorded traces as PSan, which is what makes
// the comparison apples-to-apples: robustness subsumes each of these
// conditions (§1.1).
package baseline

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// AssertOracle reports the assertion failures of an execution — the only
// bug signal the Jaaru-style baseline has.
func AssertOracle(w *pmem.World) []string { return w.AssertFailures() }

// Finding is one ordering violation reported by the Witcher-style
// heuristic: Later was observed persisted by an earlier read, while a
// subsequent dependent read observed memory older than Earlier, which
// happens before Later.
type Finding struct {
	Earlier *trace.Store // the store that should have persisted first
	Later   *trace.Store // the store observed persisted
	// EarlierLoc and LaterLoc are the stores' source labels, materialized
	// at detection time so findings stay meaningful after the trace's
	// storage is recycled for the next execution.
	EarlierLoc string
	LaterLoc   string
	LoadLoc    string // the dependent load that observed stale data
}

// Key identifies the finding for deduplication.
func (f Finding) Key() string {
	return fmt.Sprintf("%s|%s", f.EarlierLoc, f.LaterLoc)
}

// String renders the finding.
func (f Finding) String() string {
	return fmt.Sprintf("witcher: %v persisted before %v (stale read at %s)", f.Later, f.Earlier, f.LoadLoc)
}

// Witcher analyzes a completed trace with the dependence heuristic. For
// each post-crash thread it scans reads in program order; a read that
// observes a store B from the immediately preceding sub-execution makes
// every later read of that thread dependence-ordered after it. If a
// later read observes a version of some location a older than a store A
// to a that happens before B, the pair (A, B) is flagged.
func Witcher(tr *trace.Trace) []Finding {
	var out []Finding
	seen := map[string]bool{}
	subs := tr.SubExecs()
	for ei := 1; ei < len(subs); ei++ {
		// Group this sub-execution's cross-crash reads per thread, in
		// program order.
		perThread := map[memmodel.ThreadID][]*trace.Event{}
		for _, ev := range tr.SubEvents(ei) {
			if ev.Kind != memmodel.OpLoad && !ev.Kind.IsRMW() {
				continue
			}
			if ev.RF == nil {
				continue
			}
			if ev.RF.Initial || ev.RF.SubExec < ei {
				perThread[ev.Thread] = append(perThread[ev.Thread], ev)
			}
		}
		prev := subs[ei-1]
		for _, reads := range perThread {
			for i, fresh := range reads {
				b := fresh.RF
				// The anchor read must observe a store from the
				// immediately preceding sub-execution; the heuristic
				// does not reason across multiple crashes.
				if b.Initial || b.SubExec != ei-1 {
					continue
				}
				for _, stale := range reads[i+1:] {
					a := newestHBStoreTo(tr, prev, stale.Addr, b)
					if a == nil || a == b {
						continue
					}
					older := stale.RF.Initial ||
						(stale.RF.SubExec == ei-1 && stale.RF.Seq < a.Seq) ||
						stale.RF.SubExec < ei-1
					if !older {
						continue
					}
					f := Finding{
						Earlier: a, Later: b,
						EarlierLoc: tr.LocString(a.Loc),
						LaterLoc:   tr.LocString(b.Loc),
						LoadLoc:    tr.LocString(stale.Loc),
					}
					if !seen[f.Key()] {
						seen[f.Key()] = true
						out = append(out, f)
					}
				}
			}
		}
	}
	return out
}

// newestHBStoreTo returns the newest store to addr in sub-execution e
// that happens before b (or is b's own earlier same-thread store).
func newestHBStoreTo(tr *trace.Trace, e *trace.SubExec, addr memmodel.Addr, b *trace.Store) *trace.Store {
	var newest *trace.Store
	for _, s := range e.StoresTo(addr) {
		if tr.HappensBefore(s, b) {
			newest = s // StoresTo is in TSO order; keep the last match
		}
	}
	return newest
}

// Unflushed is one pmemcheck-style report: a store that was committed in
// a pre-crash sub-execution but not guaranteed persistent when the crash
// hit.
type Unflushed struct {
	Store *trace.Store
	// Loc is the store's source label, materialized at detection time.
	Loc string
}

// String renders the report.
func (u Unflushed) String() string {
	return fmt.Sprintf("pmemcheck: store not flushed at crash: %v", u.Store)
}

// Pmemcheck scans each crashed sub-execution for stores that no
// completed flush covered — the "are stores flushed at all" check of
// pmemcheck and Agamotto (Table 1: "does not check order"). The scan
// mirrors the Px86 flush semantics: clflush persists its line when it
// commits; clflushopt needs a later drain by the same thread.
//
// The scanner assumes the immediate-commit simulator configuration, in
// which the event log order coincides with TSO commit order.
func Pmemcheck(tr *trace.Trace) []Unflushed {
	var out []Unflushed
	subs := tr.SubExecs()
	for ei := 0; ei < len(subs)-1; ei++ { // every crashed sub-execution
		lineStores := map[memmodel.Addr][]*trace.Store{}
		guaranteed := map[memmodel.Addr]int{}
		pending := map[memmodel.ThreadID]map[memmodel.Addr]int{}
		for _, ev := range tr.SubEvents(ei) {
			switch {
			case ev.Store != nil:
				line := ev.Store.Addr.Line()
				lineStores[line] = append(lineStores[line], ev.Store)
				if ev.Kind.IsRMW() {
					completeDrain(pending, guaranteed, ev.Thread)
				}
			case ev.Kind == memmodel.OpFlush:
				line := ev.Addr.Line()
				if n := len(lineStores[line]); n > guaranteed[line] {
					guaranteed[line] = n
				}
			case ev.Kind == memmodel.OpFlushOpt:
				line := ev.Addr.Line()
				if pending[ev.Thread] == nil {
					pending[ev.Thread] = map[memmodel.Addr]int{}
				}
				if n := len(lineStores[line]); n > pending[ev.Thread][line] {
					pending[ev.Thread][line] = n
				}
			case ev.Kind == memmodel.OpSFence || ev.Kind == memmodel.OpMFence:
				completeDrain(pending, guaranteed, ev.Thread)
			case ev.Kind.IsRMW():
				completeDrain(pending, guaranteed, ev.Thread)
			}
		}
		for line, stores := range lineStores {
			for i := guaranteed[line]; i < len(stores); i++ {
				out = append(out, Unflushed{Store: stores[i], Loc: tr.LocString(stores[i].Loc)})
			}
		}
	}
	return out
}

func completeDrain(pending map[memmodel.ThreadID]map[memmodel.Addr]int, guaranteed map[memmodel.Addr]int, t memmodel.ThreadID) {
	for line, n := range pending[t] {
		if n > guaranteed[line] {
			guaranteed[line] = n
		}
	}
	delete(pending, t)
}
