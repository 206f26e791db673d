// The unit scheduler: one chain of work units, in canonical order,
// behind every exploration path.
//
// Run's worker goroutines (pool.go) and the dispatch supervisor's
// process slots (internal/dispatch) drive the same Scheduler. It holds
// the units in canonical order — random-mode index ranges, or
// model-check subtrees spawned one by one as each classifies — hands
// out the lowest claimable one, budgets model-check units against the
// Executions cap, and folds every finished unit into the assembler as
// soon as it and every earlier unit are done. Close folds whatever a
// stop left unfinished as lost units and cuts the stream there. Because
// the fold is a pure function of the unit streams, and each stream is a
// pure function of its spec, the Result is the same whichever
// goroutines or processes ran the units, in whatever order they
// finished.
package explore

import (
	"sync"
	"sync/atomic"
)

// lookahead bounds how far random-mode claims may run ahead of the
// fold: at most Workers*lookahead units are unfolded at once, which
// bounds the streams held while an earlier unit is still running.
const lookahead = 4

// Unit is one work unit of a Scheduler's chain. It belongs to its
// claimer from Claim until Finish or Release, and must not be used
// after Finish: the scheduler reuses its storage for later units.
type Unit struct {
	// ID is the unit's canonical position in the chain: random ranges
	// in index order, model-check subtrees in spawn order.
	ID int
	// Spec describes the unit. A model-check unit's Budget is set when
	// it is claimed.
	Spec UnitSpec

	s          *Scheduler
	state      unitState
	classified bool         // mc: the first-crash classification was applied
	execs      atomic.Int64 // executions recorded so far, for later units' budgets
	res        UnitResult
	rng        RandomRange // Spec.Random's storage
	mc         MCCheckpoint
}

type unitState uint8

const (
	unitClaimable unitState = iota
	unitClaimed
	unitFinished
)

// Scheduler is the chain of work units one campaign explores. Every
// method is safe for concurrent use.
type Scheduler struct {
	opt *Options
	a   *assembler
	// st is Run's stop source, polled at every claim; the supervisor
	// has none and calls Stop.
	st *stopper
	mc bool
	// Random mode: unit k covers [lo+k*size, lo+(k+1)*size) of the
	// canonical stream, up to Executions, in total units.
	lo, size, total int
	// limit is the model-check execution budget of the whole chain: the
	// Executions cap less a resumed checkpoint's collected count.
	limit int
	// width is the number of claimers; random mode keeps at most
	// width*lookahead units unfolded.
	width int

	mu   sync.Mutex
	cond sync.Cond
	// units is the unfolded suffix of the chain: units[i].ID is
	// folded+i. Folded units go to free for reuse.
	units  []*Unit
	folded int
	free   []*Unit
	// created counts the units ever added; active the claimed ones.
	created, active int
	// closed: no unit can be added (every range exists, or the last
	// subtree classified without firing its injection). halted: Stop.
	closed, halted bool
	// keys logs the state-cache registrations of classified subtrees in
	// chain order; each spawned subtree's spec carries the prefix.
	keys []CacheEntry
	// foldedExecs counts the executions the folded units recorded.
	foldedExecs int
}

// NewScheduler starts the unit chain of a campaign of program under
// opt, as Run would explore it with opt.Executions resolved;
// opt.Resume continues a checkpoint. unitExecs sizes random-mode ranges
// (executions per unit). The scheduler records into none of opt.Obs's
// instruments: a supervisor's workers ship those as deltas of the units
// they run.
func NewScheduler(program string, opt Options, unitExecs int) *Scheduler {
	return newScheduler(program, &opt, unitExecs)
}

// newScheduler seeds the chain under resolved options: every random
// range lazily, or the first model-check subtree (a resumed checkpoint's
// cut subtree, and its successor if it already spawned one).
func newScheduler(program string, opt *Options, unitExecs int) *Scheduler {
	s := &Scheduler{
		opt:   opt,
		a:     newAssembler(program, opt),
		mc:    opt.Mode == ModelCheck,
		size:  max(unitExecs, 1),
		limit: opt.Executions,
		width: max(opt.Workers, 1),
	}
	s.cond.L = &s.mu
	ck := opt.Resume
	if ck != nil {
		s.lo = ck.Collected
		s.limit -= ck.Collected
	}
	if !s.mc {
		s.total = (opt.Executions - s.lo + s.size - 1) / s.size
		s.closed = s.total <= 0
		return s
	}
	if ck == nil || ck.MC == nil {
		s.spawnLocked(MCCheckpoint{})
		return s
	}
	s.keys = append([]CacheEntry(nil), ck.MC.CacheKeys...)
	u := s.spawnLocked(*ck.MC)
	if ck.MC.Started {
		// The cut subtree classified before the checkpoint.
		u.classified = true
		if ck.MC.SpawnNext {
			s.spawnLocked(MCCheckpoint{Subtree: ck.MC.Subtree + 1})
		} else {
			s.closed = true
		}
	}
	return s
}

// addLocked appends a unit to the chain, reusing a folded one's storage.
func (s *Scheduler) addLocked() *Unit {
	var u *Unit
	if n := len(s.free); n > 0 {
		u = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		u = &Unit{s: s}
	}
	u.ID = s.created
	s.created++
	s.units = append(s.units, u)
	return u
}

// spawnLocked appends model-check subtree mc.Subtree, its spec carrying
// the cache registrations of every earlier subtree. The log is append-
// only, so a capped prefix needs no copy.
func (s *Scheduler) spawnLocked(mc MCCheckpoint) *Unit {
	u := s.addLocked()
	if mc.CacheKeys == nil {
		mc.CacheKeys = s.keys[:len(s.keys):len(s.keys)]
	}
	u.mc = mc
	u.Spec = UnitSpec{MC: &u.mc}
	s.opt.em.FrontierDepth.Add(1)
	return u
}

// Claim takes the chain's lowest claimable unit, waiting while a
// claimed unit may still add or release one. It returns nil once the
// campaign is stopped or the chain is exhausted.
func (s *Scheduler) Claim() *Unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		u, over := s.claimLocked()
		if u != nil || over {
			return u
		}
		s.cond.Wait()
	}
}

// claimLocked claims the lowest claimable unit, adding the next random
// range when none is. With none to hand out, over reports whether one
// can still appear. A model-check unit whose budget is already spent
// can contribute nothing to the collected prefix: it is finished empty,
// where the cap cuts the stream.
func (s *Scheduler) claimLocked() (u *Unit, over bool) {
	for !s.halted && (s.st == nil || !s.st.stopped()) {
		u = s.claimableLocked()
		if u == nil && !s.closed && !s.mc && len(s.units) < s.width*lookahead {
			u = s.addLocked()
			lo := s.lo + u.ID*s.size
			u.rng = RandomRange{Lo: lo, Hi: min(lo+s.size, s.opt.Executions)}
			u.Spec = UnitSpec{Random: &u.rng}
			s.closed = s.created == s.total
		}
		if u == nil {
			return nil, s.closed || s.active == 0
		}
		if s.mc {
			b := s.budgetLocked(u)
			if b <= 0 {
				s.finishLocked(u)
				continue
			}
			u.Spec.Budget = b
		}
		u.state = unitClaimed
		s.active++
		return u, false
	}
	return nil, true
}

func (s *Scheduler) claimableLocked() *Unit {
	for _, u := range s.units {
		if u.state == unitClaimable {
			return u
		}
	}
	return nil
}

// budgetLocked is unit u's execution budget: the chain's limit less the
// executions every earlier unit has recorded so far. Those counts only
// grow, so the budget is conservative — a unit may overshoot, trimmed at
// the fold, but never stops short of the canonical prefix's need. With
// every earlier unit folded it is exact.
func (s *Scheduler) budgetLocked(u *Unit) int {
	b := s.limit - s.foldedExecs
	for _, v := range s.units[:u.ID-s.folded] {
		b -= int(v.execs.Load())
	}
	return b
}

// allows reports whether unit u, having recorded n executions, may run
// another under its live budget.
func (u *Unit) allows(n int) bool {
	u.s.mu.Lock()
	defer u.s.mu.Unlock()
	return n < u.s.budgetLocked(u)
}

// executed records that u has recorded n executions.
func (u *Unit) executed(n int) { u.execs.Store(int64(n)) }

// classify applies u's first-crash classification.
func (u *Unit) classify(c UnitClassification) { u.s.Classify(u, c) }

// Classify applies a model-check unit's first-crash classification: it
// logs the state-cache registration and spawns the next subtree, or
// closes the chain when the injection did not fire. It is idempotent —
// a redelivered unit classifies again, identically — and a no-op for
// random units.
func (s *Scheduler) Classify(u *Unit, c UnitClassification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.classifyLocked(u, c)
}

func (s *Scheduler) classifyLocked(u *Unit, c UnitClassification) {
	if u.classified || !s.mc {
		return
	}
	u.classified = true
	if c.Keyed {
		s.keys = append(s.keys, c.Key)
	}
	if u.ID == s.created-1 {
		if c.InjectionFired {
			s.spawnLocked(MCCheckpoint{Subtree: u.mc.Subtree + 1})
		} else {
			s.closed = true
		}
		s.cond.Broadcast()
	}
}

// Finish hands in claimed unit u's stream and folds every unit of the
// finished prefix.
func (s *Scheduler) Finish(u *Unit, ur *UnitResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ur != &u.res {
		u.res = *ur
	}
	if ur.Classified {
		// Applies a classification whose early report was lost.
		s.classifyLocked(u, ur.Class)
	}
	s.active--
	s.finishLocked(u)
}

func (s *Scheduler) finishLocked(u *Unit) {
	u.state = unitFinished
	u.execs.Store(int64(u.res.N))
	if s.mc {
		s.opt.em.FrontierDepth.Add(-1)
	}
	s.foldLocked(false)
	s.cond.Broadcast()
}

// Release returns claimed unit u to claimable, its attempt discarded:
// the supervisor redelivers a unit whose worker died this way.
func (s *Scheduler) Release(u *Unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u.state = unitClaimable
	u.execs.Store(0)
	u.res.reset()
	s.active--
	s.cond.Broadcast()
}

// Stop ends claiming: Claim returns nil from now on, and the units not
// finished by Close become the cut.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.halted = true
	s.cond.Broadcast()
}

// foldLocked hands the chain's finished prefix to the assembler in
// canonical order, so units that start later see its violation keys as
// known; the assembler serializes Progress under s.mu. With lost set it
// folds the unfinished units too, as lost.
func (s *Scheduler) foldLocked(lost bool) {
	n := 0
	for ; n < len(s.units) && (lost || s.units[n].state == unitFinished); n++ {
		u := s.units[n]
		if u.state != unitFinished {
			if s.mc {
				s.opt.em.FrontierDepth.Add(-1)
			}
			s.a.addLost(u.Spec.MC)
			continue
		}
		s.a.add(&u.res)
		s.foldedExecs += u.res.N
		u.res.reset()
		*u = Unit{s: s, res: u.res}
		s.free = append(s.free, u)
	}
	if n > 0 {
		// Shift in place: the slice keeps its backing array.
		s.folded += n
		m := copy(s.units, s.units[n:])
		clear(s.units[m:])
		s.units = s.units[:m]
	}
}

// Cut is unit u's checkpoint-shaped identity: the campaign a worker
// validates its own options against, and u's model-check block.
func (s *Scheduler) Cut(u *Unit) Checkpoint {
	ck := s.opt.checkpointHeader(s.a.res.Program)
	ck.MC = u.Spec.MC
	return ck
}

// Close ends the campaign: units a stop left unfinished — parked,
// claimed by a dead worker, quarantined — fold as lost and cut the
// stream, and so does a random range never created. stopReason is as
// for the assembler's finish. Close must follow every Finish.
func (s *Scheduler) Close(stopReason string) *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked(true)
	if !s.mc && s.a.idx < s.opt.Executions {
		s.a.addLost(nil)
	}
	return s.a.finish(stopReason)
}
