// Ordered assembly of execution streams: the one fold behind every
// exploration path.
//
// The assembler is the only place that assigns canonical indices,
// merges violations, truncates at the Executions cap, finds the cut
// (the first unit with uncollected work), counts the frontier, and
// writes the v4 checkpoint at the cut. Its one feeder is the unit
// Scheduler (scheduler.go), which hands it units in canonical order —
// index order in random mode, subtree order in model checking —
// whether Run's goroutines or the dispatch supervisor's worker
// processes ran them. Because the fold is a pure function of the unit
// streams, and each unit's stream is deterministic in its spec, the
// assembled Result is bit-identical at any worker count, under any kill
// schedule, and across supervisor restarts.
package explore

import (
	"maps"
	"sort"
	"sync/atomic"
	"time"
)

// assembler folds unit results, fed in canonical order, into a Result.
type assembler struct {
	opt  Options
	res  *Result
	seen map[string]bool
	// known is seen, published copy-on-write for the worlds the fold
	// drives (see isKnown); new keys are rare, so a copy per key is cheap.
	known atomic.Pointer[map[string]bool]
	start time.Time
	idx   int // canonical stream cursor

	cut       bool          // a unit with uncollected work cut the stream
	cutMC     *MCCheckpoint // the cut unit's resume point (nil: none)
	truncated bool          // the Executions cap made the cut
	frontier  int

	// cache-registration log for checkpoints, frozen at the cut (a
	// checkpoint covers subtrees up to the cut only; later lookups are
	// re-derived on resume).
	cacheKeys        []CacheEntry
	hits, misses     int
	ckKeys           []CacheEntry
	ckHits, ckMisses int
}

// newAssembler starts an assembly for program under opt (opt.Resume
// primes the cursor, counters, and dedup set).
func newAssembler(program string, opt *Options) *assembler {
	a := &assembler{
		opt:   *opt,
		res:   &Result{Program: program, Mode: opt.Mode, Workers: opt.Workers, Window: opt.Model.Window},
		seen:  make(map[string]bool),
		start: time.Now(),
	}
	if ck := opt.Resume; ck != nil {
		a.idx = ck.Collected
		a.res.Executions, a.res.Aborted, a.res.Quarantined = ck.Collected, ck.Aborted, ck.Quarantined
		for _, k := range ck.ViolationKeys {
			a.seen[k] = true
		}
		if ck.MC != nil {
			a.cacheKeys = append(a.cacheKeys, ck.MC.CacheKeys...)
			a.hits, a.misses = ck.MC.CacheHits, ck.MC.CacheMisses
		}
	}
	a.publish()
	return a
}

// publish makes the current dedup set visible to isKnown.
func (a *assembler) publish() {
	m := maps.Clone(a.seen)
	a.known.Store(&m)
}

// isKnown reports whether violation key k has already been collected.
// Workers consult it after their unit's own keys (workerState.isKnown).
// Both in-process modes fold as units finish, so a unit sees the keys
// of every unit folded before it ran.
func (a *assembler) isKnown(k string) bool { return (*a.known.Load())[k] }

// add folds one unit's stream, in canonical order: its classification,
// then its executions, cut at its resume point if it did not finish.
func (a *assembler) add(ur *UnitResult) {
	if ur.Classified {
		a.classify(ur.Class)
	}
	a.addStats(ur)
	collected := true
	for i := range ur.Execs {
		if !a.collect(&ur.Execs[i]) {
			collected = false
		}
	}
	a.endUnit(ur.cut, ur.Done, collected)
}

// addLost records a unit in canonical position whose stream never
// arrived — parked or lost to a dead worker at a stop, or quarantined.
// It cuts the canonical stream at the unit's starting point mc (nothing
// after it may be collected) and counts toward the frontier.
func (a *assembler) addLost(mc *MCCheckpoint) { a.endUnit(mc, false, false) }

// classify logs a model-check subtree's first-crash classification: the
// state-cache registration (a miss) or hit it made. Only a subtree that
// starts inside the collected prefix counts. Past a cut or the
// Executions cap, whether a subtree classified at all depends on
// scheduling: with several workers its first execution may have run
// under the conservative budget, and with one it never does.
func (a *assembler) classify(c UnitClassification) {
	if a.cut || a.idx >= a.opt.Executions {
		return
	}
	if c.Keyed {
		a.cacheKeys = append(a.cacheKeys, c.Key)
		a.misses++
	}
	if c.Pruned {
		a.hits++
	}
}

// addStats sums a unit's diagnostics, which cover every execution it
// ran, collected or not.
func (a *assembler) addStats(ur *UnitResult) {
	a.res.WorkerTime += time.Duration(ur.WorkNanos)
	a.res.SnapshotRestores += ur.SnapshotRestores
}

// collect assigns the next canonical index to ex and folds it into the
// Result — unless the stream is already cut, or the Executions cap cuts
// it here. It reports whether ex was collected; past the cut nothing
// is (a resume re-derives it).
func (a *assembler) collect(ex *UnitExec) bool {
	if !a.cut && a.idx >= a.opt.Executions {
		a.truncated = true
		a.setCut(nil)
	}
	if a.cut {
		return false
	}
	if ex.Err != nil && ex.Err.Exec < 0 {
		ex.Err.Exec = a.idx
	}
	n := len(a.seen)
	a.res.collect(ex, a.idx, a.seen, &a.opt)
	if len(a.seen) != n {
		a.publish()
	}
	a.idx++
	return true
}

// endUnit closes a unit's stream: a unit that did not finish cuts the
// canonical stream at cut, and one with uncollected work counts toward
// the frontier. A model-check unit that stopped short with no resume
// point bowed out on its execution budget, so the cap makes the cut.
func (a *assembler) endUnit(cut *MCCheckpoint, done, collected bool) {
	if !done {
		if cut == nil && !a.cut && a.opt.Mode == ModelCheck {
			a.truncated = true
		}
		a.setCut(cut)
	}
	if !done || !collected {
		a.frontier++
	}
}

// setCut freezes the checkpoint cut at a unit's resume point
// (first-setter wins).
func (a *assembler) setCut(mc *MCCheckpoint) {
	if a.cut {
		return
	}
	a.cut = true
	a.cutMC = mc
	a.ckKeys = append([]CacheEntry(nil), a.cacheKeys...)
	a.ckHits, a.ckMisses = a.hits, a.misses
}

// finish closes the assembly. stopReason is the stop cause ("" for a
// run whose frontier drained); a cut with no external stop is an
// "exec-budget" truncation. Only a non-truncated stop whose cut has a
// resume point yields a checkpoint; budget truncation (cap reached, or
// a unit that bowed out on its budget) is re-run with a larger budget
// instead. A stop reason is reported even when the run completed (a
// stop landing in the same tick the frontier drained), so it is never
// silently swallowed.
func (a *assembler) finish(stopReason string) *Result {
	res := a.res
	res.CacheHits, res.CacheMisses = a.hits, a.misses
	if a.cut {
		res.Partial = true
		if stopReason != "" {
			res.noteStop(stopReason)
		} else {
			res.noteStop("exec-budget")
		}
		switch {
		case a.opt.Mode == Random:
			res.FrontierRemaining = a.opt.Executions - a.idx
		case a.truncated:
			// Only the unit the cap cut: how many units a schedule ran
			// or spawned past it varies with width.
			res.FrontierRemaining = 1
		default:
			res.FrontierRemaining = a.frontier
		}
		if stopReason != "" && !a.truncated && (a.opt.Mode == Random || a.cutMC != nil) {
			res.Checkpoint = a.checkpoint()
		}
	} else if stopReason != "" {
		res.noteStop(stopReason)
	}
	res.Elapsed = time.Since(a.start)
	return res
}

// checkpoint builds the v4 resume state at the cut. A model-check cut
// unit's resume point is already checkpoint-shaped — it names the cut
// subtree, trail and spawn flag — so the checkpoint is that block plus
// the frozen cache-registration log. A cut unit that classified but
// whose stream was lost re-classifies on resume (its registration is
// deliberately not in the log; re-registering is idempotent for the
// hit/miss pattern of later subtrees).
func (a *assembler) checkpoint() *Checkpoint {
	ck := a.opt.checkpointHeader(a.res.Program)
	ck.Collected = a.idx
	ck.Aborted, ck.Quarantined = a.res.Aborted, a.res.Quarantined
	ck.ViolationKeys = keysOf(a.seen)
	if a.opt.Mode == ModelCheck {
		mc := *a.cutMC
		mc.CacheKeys, mc.CacheHits, mc.CacheMisses = a.ckKeys, a.ckHits, a.ckMisses
		ck.MC = &mc
	}
	return &ck
}

// keysOf returns the sorted contents of a dedup set — the cumulative
// violation keys a checkpoint must carry.
func keysOf(seen map[string]bool) []string {
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
