//go:build go1.23

package pmem

import (
	"iter"

	"repro/internal/memmodel"
)

// simThread is a spawned cooperative thread, run as a coroutine
// (iter.Pull) that RunThreads' goroutine — the hub — resumes. Exactly
// one coroutine runs simulated code at any time, so the whole
// simulation stays serialized: no two simulated operations ever run
// concurrently. The running thread does the scheduler step itself at
// each operation boundary and when it finishes: it keeps running if the
// draw picks it again, and otherwise records the drawn thread and
// suspends back to the hub, which resumes that thread. A handoff is two
// coroutine switches and never goes through the Go scheduler.
type simThread struct {
	t       *Thread
	body    func(*Thread)
	s       *scheduler
	resume  func() (struct{}, bool) // run until the thread suspends or finishes
	stop    func()
	suspend func(struct{}) bool // back to the hub; false once the hub stops the coroutine
	done    bool
	err     any // non-crash panic from the body, re-raised by RunThreads
}

// stopSignal unwinds a body whose coroutine the hub stops while it is
// suspended at a boundary. That happens only when RunThreads itself
// unwinds early, for example on a runtime.Goexit from another body.
type stopSignal struct{}

// scheduler is the state of one RunThreads call. Only the running
// thread, or the hub while every thread is suspended, touches it.
type scheduler struct {
	w        *World
	live     []*simThread
	cur      *simThread // the thread the hub resumes next; nil ends the schedule
	draining bool
}

// Spawn registers a simulated thread whose body runs under the
// cooperative scheduler. Call RunThreads to execute all spawned threads.
// Spawned threads must issue all shared-state accesses through their
// Thread handle; plain Go state must stay thread-local.
func (w *World) Spawn(id memmodel.ThreadID, body func(*Thread)) {
	st := &simThread{body: body}
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
// The calling goroutine is the hub: it resumes whichever thread the
// last scheduler step drew, until a thread ends the schedule on a body
// error, a crash, the operation budget, or an empty live set. Every
// coroutine is stopped before RunThreads returns or unwinds, so none
// outlives the call. A runtime.Goexit inside a body propagates to the
// caller, after the other threads are stopped.
func (w *World) RunThreads() {
	threads := w.spawned
	w.spawned = nil
	if len(threads) == 0 {
		return
	}
	s := &scheduler{w: w, live: append([]*simThread(nil), threads...)}
	for _, st := range threads {
		st.s = s
		st.resume, st.stop = iter.Pull(st.main)
	}
	defer s.stopAll(threads)
	s.cur = s.live[w.rng.Intn(len(s.live))]
	var last *simThread
	for s.cur != nil {
		last = s.cur
		last.resume()
	}
	s.draining = true
	if last.err != nil {
		// Crash the phase so the drain below unwinds the other threads
		// before the error is re-raised.
		w.crashed = true
	}
	aborted := w.ops > w.opLimit
	for _, st := range threads {
		// Each resumed thread observes the crash or the budget in step
		// and unwinds; one that never started skips its body.
		for !st.done {
			st.resume()
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

// stopAll stops every thread's coroutine. After a complete drain each
// has finished and stop is a no-op; on an early unwind a suspended
// thread's body unwinds with stopSignal, and one that never started
// never runs its body.
func (s *scheduler) stopAll(threads []*simThread) {
	s.draining = true
	for _, st := range threads {
		st.stop()
	}
}

// main is a spawned thread's coroutine body: run the thread's body and
// record the next thread when it finishes.
func (st *simThread) main(suspend func(struct{}) bool) {
	st.suspend = suspend
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case CrashSignal, AbortSignal, stopSignal:
				// Crash/abort unwound the body; RunThreads raises the
				// signal on the phase's stack.
			default:
				st.err = r
			}
		}
		st.done = true
		st.s.cur = st.s.next(st)
	}()
	if !st.s.draining {
		st.body(st.t)
	}
}

// yield is called from Thread.step at each operation boundary of a
// spawned thread: run the scheduler step, and unless the draw picked
// this thread again, record the drawn thread and suspend to the hub.
func (st *simThread) yield() {
	next := st.s.next(st)
	if next == st {
		return
	}
	st.s.cur = next
	if !st.suspend(struct{}{}) {
		panic(stopSignal{})
	}
}

// next is the scheduler step, run by the running thread cur at each of
// its boundaries and once more when it is done. It returns the thread
// to run next, or nil when control must go back to RunThreads. The
// done, crash and budget checks precede the single draw from the
// world's random source, so a seed replays the same interleaving.
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

func remove(live []*simThread, st *simThread) []*simThread {
	out := live[:0]
	for _, x := range live {
		if x != st {
			out = append(out, x)
		}
	}
	return out
}
