package pmem

import (
	"repro/internal/memmodel"
)

// simThread is a spawned cooperative thread. Exactly one goroutine — the
// baton holder — runs simulated code at any time, so the whole
// simulation stays serialized: no two simulated operations ever run
// concurrently. A spawned thread holding the baton runs the scheduler
// step itself at each operation boundary and when it finishes: it keeps
// running if the draw picks it again, and otherwise hands the baton
// directly to the drawn thread.
type simThread struct {
	t    *Thread
	body func(*Thread)
	s    *scheduler
	run  chan struct{} // the baton: run to the next boundary
	done bool
	err  any // non-crash panic from the body, re-raised by RunThreads
}

// scheduler is the state of one RunThreads call. Only the baton holder
// touches it.
type scheduler struct {
	w        *World
	live     []*simThread
	draining bool
	back     chan *simThread // the baton returned to RunThreads by the thread that ended the schedule
}

// Spawn registers a simulated thread whose body runs under the
// cooperative scheduler. Call RunThreads to execute all spawned threads.
// Spawned threads must issue all shared-state accesses through their
// Thread handle; plain Go state must stay thread-local.
func (w *World) Spawn(id memmodel.ThreadID, body func(*Thread)) {
	st := &simThread{body: body, run: make(chan struct{}, 1)}
	st.t = &Thread{ID: id, w: w, yield: st.yield}
	w.registerThread(id)
	w.spawned = append(w.spawned, st)
}

// RunThreads executes every spawned thread to completion, interleaving
// them one operation at a time. The schedule is drawn from the world's
// random source, so a seed fully determines the interleaving. If any
// thread hits the crash target, every other thread is unwound and
// RunThreads panics with CrashSignal, crashing the phase.
//
// The calling goroutine only grants the first step; the threads pass
// the baton among themselves and hand it back on a body error, a crash,
// the operation budget, or when no thread is live.
func (w *World) RunThreads() {
	threads := w.spawned
	w.spawned = nil
	if len(threads) == 0 {
		return
	}
	s := &scheduler{w: w, live: append([]*simThread(nil), threads...), back: make(chan *simThread, 1)}
	for _, st := range threads {
		st.s = s
		go st.main()
	}
	s.live[w.rng.Intn(len(s.live))].run <- struct{}{}
	last := <-s.back
	s.draining = true
	if last.err != nil {
		// Crash the phase so the drain below unwinds the other threads
		// before the error is re-raised.
		w.crashed = true
	}
	aborted := w.ops > w.opLimit
	for _, st := range threads {
		// Each woken thread observes the crash or the budget in step and
		// unwinds; one that never started skips its body.
		for !st.done {
			st.run <- struct{}{}
			<-s.back
		}
	}
	if last.err != nil {
		panic(last.err)
	}
	if aborted {
		panic(AbortSignal{Reason: "operation budget exceeded in RunThreads"})
	}
	if w.crashed {
		panic(CrashSignal{})
	}
}

// main is a spawned thread's goroutine: wait for the first grant, run
// the body, and pass the baton on when it finishes.
func (st *simThread) main() {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case CrashSignal, AbortSignal:
				// Crash/abort unwound the body; RunThreads raises the
				// signal on the phase's stack.
			default:
				st.err = r
			}
		}
		st.done = true
		st.s.pass(st, st.s.next(st))
	}()
	<-st.run
	if !st.s.draining {
		st.body(st.t)
	}
}

// yield is called from Thread.step at each operation boundary of a
// spawned thread: run the scheduler step, and unless the draw picked
// this thread again, pass the baton and wait for it to come back.
func (st *simThread) yield() {
	next := st.s.next(st)
	if next == st {
		return
	}
	st.s.pass(st, next)
	<-st.run
}

// next is the scheduler step, run by the baton holder cur at each of its
// boundaries and once more when it is done. It returns the thread to run
// next, or nil when the baton must go back to RunThreads. The done,
// crash and budget checks precede the single draw from the world's
// random source, so a seed replays the same interleaving.
func (s *scheduler) next(cur *simThread) *simThread {
	if s.draining {
		return nil
	}
	if cur.done {
		if cur.err != nil {
			return nil
		}
		s.live = remove(s.live, cur)
	}
	w := s.w
	if w.crashed || w.ops > w.opLimit || len(s.live) == 0 {
		return nil
	}
	return s.live[w.rng.Intn(len(s.live))]
}

// pass hands the baton from cur to next, or back to RunThreads when next
// is nil. The caller must not touch simulation state afterwards.
func (s *scheduler) pass(cur, next *simThread) {
	if next == nil {
		s.back <- cur
	} else {
		next.run <- struct{}{}
	}
}

func remove(live []*simThread, st *simThread) []*simThread {
	out := live[:0]
	for _, x := range live {
		if x != st {
			out = append(out, x)
		}
	}
	return out
}
