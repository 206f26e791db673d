package pmem

import (
	"repro/internal/memmodel"
)

// refThread and refRunThreads are the channel scheduler spawned threads
// first ran under, kept as the reference the coroutine scheduler must
// match schedule for schedule. A dedicated scheduler
// goroutine grants one step at a time and waits for the thread to park
// again, so every operation costs two channel round trips. Its drain
// wakes a thread that never ran only once, which leaves that goroutine
// parked forever; the tests tolerate the leak.
type refThread struct {
	t    *Thread
	body func(*Thread)
	run  chan struct{} // scheduler -> thread: perform one step
	park chan struct{} // thread -> scheduler: parked at a boundary (or done)
	done bool
	err  any
}

func (st *refThread) parkAndWait() {
	st.park <- struct{}{}
	<-st.run
}

// refSpawn is Spawn for the reference scheduler; the thread joins
// *threads instead of the world's spawn list.
func refSpawn(w *World, threads *[]*refThread, id memmodel.ThreadID, body func(*Thread)) {
	st := &refThread{body: body, run: make(chan struct{}), park: make(chan struct{})}
	st.t = &Thread{ID: id, w: w, yield: st.parkAndWait}
	w.registerThread(id)
	*threads = append(*threads, st)
}

func refRunThreads(w *World, threads []*refThread) {
	if len(threads) == 0 {
		return
	}
	for _, st := range threads {
		go func(st *refThread) {
			defer func() {
				if r := recover(); r != nil {
					switch r.(type) {
					case CrashSignal, AbortSignal:
					default:
						st.err = r
					}
				}
				st.done = true
				st.park <- struct{}{}
			}()
			<-st.run
			st.body(st.t)
		}(st)
	}
	live := append([]*refThread(nil), threads...)
	aborted := false
	for len(live) > 0 {
		st := live[w.rng.Intn(len(live))]
		st.run <- struct{}{}
		<-st.park
		if st.done {
			if st.err != nil {
				w.crashed = true
				refDrain(live, st)
				panic(st.err)
			}
			live = refRemove(live, st)
		}
		if w.crashed || w.ops > w.opLimit {
			aborted = w.ops > w.opLimit
			refDrain(live, st)
			live = nil
		}
	}
	if aborted {
		panic(AbortSignal{Reason: "operation budget exceeded in RunThreads"})
	}
	if w.crashed {
		panic(CrashSignal{})
	}
}

func refDrain(live []*refThread, skip *refThread) {
	for _, other := range live {
		if other == skip || other.done {
			continue
		}
		other.run <- struct{}{}
		<-other.park
	}
}

func refRemove(live []*refThread, st *refThread) []*refThread {
	out := live[:0]
	for _, x := range live {
		if x != st {
			out = append(out, x)
		}
	}
	return out
}
