package main

import (
	"fmt"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/trace"
)

// The layer ladder records the operation stream of real executions once
// and replays it into three rungs, each adding one layer: the persist
// backend alone, the robustness checker on top of the backend (timed on
// its own), and the full pmem world (operation budget, crash injection,
// label interning, read policy, checker). Each rung reports nanoseconds
// per operation, the checker per read.

const (
	// recordModel is a px86 backend that logs every operation.
	recordModel = "perfbench-record"
	// ladderExecs executions are recorded per port.
	ladderExecs = 4
	// Each rung replays a stream ladderReplays times per batch and
	// reports the median batch of ladderBatches.
	ladderReplays = 200
	ladderBatches = 9
)

// ladderPorts are the ports whose executions are recorded.
var ladderPorts = []string{"CCEH", "FAST_FAIR"}

func init() {
	persist.Register(persist.Info{Name: recordModel, Description: "px86 with an operation log (perfbench layer ladder)", Weak: true},
		func(cfg persist.Config) persist.Model {
			cfg.Name = persist.DefaultModel
			return &recorder{Model: persist.MustNew(cfg)}
		})
}

type opKind uint8

const (
	opStore opKind = iota
	opFlush
	opFlushOpt
	opSFence
	opMFence
	opLoad
	opCAS
	opFAA
	opCrash
)

// recOp is one recorded operation. For loads and read-modify-writes,
// pick is the index of the candidate the execution read.
type recOp struct {
	kind opKind
	t    memmodel.ThreadID
	a    memmodel.Addr
	v, w memmodel.Value // store value, CAS expected and new, FAA delta
	loc  string
	pick int
}

// recorder forwards to a backend and logs every operation it receives.
type recorder struct {
	persist.Model
	ops   []recOp
	cands []persist.Candidate
}

func (r *recorder) log(op recOp, loc trace.LocID) {
	op.loc = r.Trace().LocString(loc)
	r.ops = append(r.ops, op)
}

// pick finds the chosen candidate in the last LoadCandidates result.
func (r *recorder) pick(c persist.Candidate) int {
	for i := range r.cands {
		if r.cands[i].Store == c.Store {
			return i
		}
	}
	return 0
}

func (r *recorder) Reset() {
	r.Model.Reset()
	r.ops = r.ops[:0]
}

func (r *recorder) Store(t memmodel.ThreadID, a memmodel.Addr, v memmodel.Value, loc trace.LocID) *trace.Store {
	r.log(recOp{kind: opStore, t: t, a: a, v: v}, loc)
	return r.Model.Store(t, a, v, loc)
}

func (r *recorder) Flush(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	r.log(recOp{kind: opFlush, t: t, a: a}, loc)
	r.Model.Flush(t, a, loc)
}

func (r *recorder) FlushOpt(t memmodel.ThreadID, a memmodel.Addr, loc trace.LocID) {
	r.log(recOp{kind: opFlushOpt, t: t, a: a}, loc)
	r.Model.FlushOpt(t, a, loc)
}

func (r *recorder) SFence(t memmodel.ThreadID, loc trace.LocID) {
	r.log(recOp{kind: opSFence, t: t}, loc)
	r.Model.SFence(t, loc)
}

func (r *recorder) MFence(t memmodel.ThreadID, loc trace.LocID) {
	r.log(recOp{kind: opMFence, t: t}, loc)
	r.Model.MFence(t, loc)
}

func (r *recorder) LoadCandidates(t memmodel.ThreadID, a memmodel.Addr) []persist.Candidate {
	r.cands = r.Model.LoadCandidates(t, a)
	return r.cands
}

func (r *recorder) Load(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, loc trace.LocID) memmodel.Value {
	r.log(recOp{kind: opLoad, t: t, a: a, pick: r.pick(c)}, loc)
	return r.Model.Load(t, a, c, loc)
}

func (r *recorder) CAS(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, expected, newV memmodel.Value, loc trace.LocID) (memmodel.Value, bool) {
	r.log(recOp{kind: opCAS, t: t, a: a, v: expected, w: newV, pick: r.pick(c)}, loc)
	return r.Model.CAS(t, a, c, expected, newV, loc)
}

func (r *recorder) FAA(t memmodel.ThreadID, a memmodel.Addr, c persist.Candidate, delta memmodel.Value, loc trace.LocID) memmodel.Value {
	r.log(recOp{kind: opFAA, t: t, a: a, v: delta, pick: r.pick(c)}, loc)
	return r.Model.FAA(t, a, c, delta, loc)
}

func (r *recorder) Crash() {
	r.ops = append(r.ops, recOp{kind: opCrash})
	r.Model.Crash()
}

// recordExecutions runs a buggy port's first random executions through
// the recording backend and returns each execution's operation stream.
func recordExecutions(b *bench.Benchmark, seed int64) [][]recOp {
	var streams [][]recOp
	explore.Run(b.Build(bench.Buggy), explore.Options{
		Mode: explore.Random, Executions: ladderExecs, Seed: seed, Workers: 1,
		Model: persist.Config{Name: recordModel},
		AfterExecution: func(w *pmem.World) {
			if r, ok := w.M.(*recorder); ok {
				streams = append(streams, append([]recOp(nil), r.ops...))
			}
		},
	})
	return streams
}

// read is one recorded read as the checker sees it.
type read struct {
	t   memmodel.ThreadID
	a   memmodel.Addr
	rf  *trace.Store
	loc trace.LocID
}

// persistReplay returns a function replaying ops into a bare px86
// backend and returning the time it took. Labels are interned once,
// outside the timed replays. With withChecker set, a core.Checker
// observes every read and only the checker's calls are timed: a
// sub-execution's reads are handed to it in one timed batch just before
// the crash that ends it (or at the end of the stream). That batch sees
// the trace the reads saw, because the checker looks only at the
// sub-executions before the current one, and those are complete.
func persistReplay(ops []recOp, withChecker bool) func() time.Duration {
	m := persist.MustNew(persist.Config{})
	var ck *core.Checker
	if withChecker {
		ck = core.New(m.Trace())
	}
	ids := make([]trace.LocID, len(ops))
	for i, op := range ops {
		ids[i] = m.Intern(op.loc)
	}
	var pending []read
	observe := func() time.Duration {
		start := time.Now()
		for _, r := range pending {
			ck.ObserveRead(r.t, r.a, r.rf, r.loc)
		}
		d := time.Since(start)
		pending = pending[:0]
		return d
	}
	return func() time.Duration {
		var checker time.Duration
		start := time.Now()
		m.Reset()
		if ck != nil {
			ck.Reset()
		}
		for i := range ops {
			op := &ops[i]
			switch op.kind {
			case opStore:
				m.Store(op.t, op.a, op.v, ids[i])
			case opFlush:
				m.Flush(op.t, op.a, ids[i])
			case opFlushOpt:
				m.FlushOpt(op.t, op.a, ids[i])
			case opSFence:
				m.SFence(op.t, ids[i])
			case opMFence:
				m.MFence(op.t, ids[i])
			case opCrash:
				if ck != nil {
					checker += observe()
				}
				m.Crash()
			default:
				cands := m.LoadCandidates(op.t, op.a)
				c := cands[min(op.pick, len(cands)-1)]
				switch op.kind {
				case opLoad:
					m.Load(op.t, op.a, c, ids[i])
				case opCAS:
					m.CAS(op.t, op.a, c, op.v, op.w, ids[i])
				case opFAA:
					m.FAA(op.t, op.a, c, op.v, ids[i])
				}
				if ck != nil {
					pending = append(pending, read{op.t, op.a, c.Store, ids[i]})
				}
			}
		}
		if ck != nil {
			return checker + observe()
		}
		return time.Since(start)
	}
}

// worldReplay returns a function replaying ops through a pmem world's
// threads, with a read policy that picks the recorded candidates, and
// returning the time it took.
func worldReplay(ops []recOp) func() time.Duration {
	var cur *recOp
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1, Chooser: func(_ *pmem.World, _ memmodel.ThreadID, _ memmodel.Addr, cands []persist.Candidate, _ trace.LocID) persist.Candidate {
		return cands[min(cur.pick, len(cands)-1)]
	}})
	threads := map[memmodel.ThreadID]*pmem.Thread{}
	return func() time.Duration {
		start := time.Now()
		w.Reset(0)
		for i := range ops {
			cur = &ops[i]
			if cur.kind == opCrash {
				w.Crash()
				continue
			}
			th := threads[cur.t]
			if th == nil {
				th = w.Thread(cur.t)
				threads[cur.t] = th
			}
			switch cur.kind {
			case opStore:
				th.Store(cur.a, cur.v, cur.loc)
			case opFlush:
				th.Flush(cur.a, cur.loc)
			case opFlushOpt:
				th.FlushOpt(cur.a, cur.loc)
			case opSFence:
				th.SFence(cur.loc)
			case opMFence:
				th.MFence(cur.loc)
			case opLoad:
				th.Load(cur.a, cur.loc)
			case opCAS:
				th.CAS(cur.a, cur.v, cur.w, cur.loc)
			case opFAA:
				th.FAA(cur.a, cur.v, cur.loc)
			}
		}
		return time.Since(start)
	}
}

// replayTime is the median time of one replay, over ladderBatches
// batches of ladderReplays replays each, after one warm-up replay.
func replayTime(replay func() time.Duration) time.Duration {
	replay()
	per := make([]float64, ladderBatches)
	for i := range per {
		var sum time.Duration
		for j := 0; j < ladderReplays; j++ {
			sum += replay()
		}
		per[i] = float64(sum) / ladderReplays
	}
	return time.Duration(median(per))
}

// ladder records the CCEH and FAST_FAIR streams and reports each rung's
// cost over all of them.
func ladder(m map[string]metric, seed int64) error {
	var backend, checker, world time.Duration
	var ops, loads int
	for _, name := range ladderPorts {
		b := benchmarks.ByName(name)
		if b == nil {
			return fmt.Errorf("ladder: port %s not registered", name)
		}
		streams := recordExecutions(b, seed)
		if len(streams) != ladderExecs {
			return fmt.Errorf("ladder: recorded %d %s executions, want %d", len(streams), name, ladderExecs)
		}
		for _, s := range streams {
			backend += replayTime(persistReplay(s, false))
			checker += replayTime(persistReplay(s, true))
			world += replayTime(worldReplay(s))
			for _, op := range s {
				if op.kind == opCrash {
					continue
				}
				ops++
				if op.kind == opLoad || op.kind == opCAS || op.kind == opFAA {
					loads++
				}
			}
		}
	}
	m["persist.replay_ns_per_op"] = quot(float64(backend.Nanoseconds()), float64(ops), "ns/op")
	m["core.replay_ns_per_load"] = quot(float64(checker.Nanoseconds()), float64(loads), "ns/load")
	m["pmem.replay_ns_per_op"] = quot(float64(world.Nanoseconds()), float64(ops), "ns/op")
	return nil
}
