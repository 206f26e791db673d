// Worker-process main loop (the body of cmd/psan-worker, and of the
// test binary's re-exec mode): speak the unit protocol on
// stdin/stdout, run each unit in-process via explore.RunUnit, report
// heartbeats, classifications, and results.
package dispatch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/explore"
	"repro/internal/obs"
)

// ChaosEnv, when set in a worker process's environment, makes the
// worker sabotage itself for the kill-chaos tests and CI job:
//
//	kill-after=N   SIGKILL self after N executions of a unit, first
//	               delivery attempts only (every unit dies once, every
//	               redelivery completes)
//	hang=ID        on unit ID's first attempt, stop heartbeating and
//	               block forever (exercises lease expiry; the
//	               supervisor must SIGKILL this worker)
//	poison=ID      SIGKILL self at the start of every attempt of unit
//	               ID (exercises retry exhaustion and quarantine)
const ChaosEnv = "PSAN_DISPATCH_CHAOS"

// chaosPlan is the parsed ChaosEnv sabotage.
type chaosPlan struct {
	killAfter int // >0: self-kill after this many execs (attempt 0)
	hangUnit  int // >=0: block forever in unit (attempt 0)
	poison    int // >=0: self-kill on every attempt of this unit
}

func parseChaos(s string) chaosPlan {
	p := chaosPlan{killAfter: 0, hangUnit: -1, poison: -1}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		switch k {
		case "kill-after":
			p.killAfter = n
		case "hang":
			p.hangUnit = n
		case "poison":
			p.poison = n
		}
	}
	return p
}

// selfKill is the chaos kill: SIGKILL, exactly what an OOM kill or an
// operator kill -9 delivers — no deferred functions, no result flush.
func selfKill() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable; SIGKILL cannot be handled
}

// ProgramResolver maps the hello message's program reference to a
// runnable program. cmd/psan-worker compiles the source file at path;
// the test harness resolves registered in-process programs by name.
type ProgramResolver func(name, path string) (explore.Program, error)

// WorkerMain runs the worker protocol until stdin closes (supervisor
// shutdown) and returns the process exit code. It is transport-pure —
// no flag parsing, no os.Exit — so tests run it over in-memory pipes
// and cmd/psan-worker stays a three-line wrapper.
func WorkerMain(stdin io.Reader, stdout, stderr io.Writer, resolve ProgramResolver) int {
	chaos := parseChaos(os.Getenv(ChaosEnv))
	dec := json.NewDecoder(bufio.NewReader(stdin))
	enc := json.NewEncoder(stdout)

	var hello helloMsg
	if err := dec.Decode(&hello); err != nil {
		fmt.Fprintf(stderr, "psan-worker: reading hello: %v\n", err)
		return 1
	}
	prog, err := resolve(hello.ProgramName, hello.ProgramPath)
	if err != nil {
		enc.Encode(workerMsg{Type: "fatal", Error: "resolving program: " + err.Error(), Permanent: true})
		return 1
	}
	opt := optionsFromWire(hello.Opts)

	// The supervisor's attached sinks define the worker's: a matching
	// local bundle whose contents ship back as per-unit metric deltas,
	// span tails, and flight events. No sinks means a nil Observer and
	// the allocation-identical disabled path, exactly as in-process.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
		flight *obs.FlightRecorder
	)
	if hello.Telemetry.Metrics {
		reg = obs.NewRegistry()
	}
	if hello.Telemetry.Trace {
		tracer = obs.NewTracer()
		tracer.SetPid(os.Getpid())
	}
	if hello.Telemetry.Flight {
		flight = obs.NewFlightRecorder(0)
		flight.SetPid(os.Getpid())
	}
	if reg != nil || tracer != nil || flight != nil {
		opt.Obs = &obs.Observer{Metrics: reg, Tracer: tracer, Flight: flight}
	}

	// Shipping cursors: the registry snapshot as of the last shipped
	// delta, the span index past the last shipped tail, and the highest
	// shipped flight sequence number. Each ship sends only what is new
	// since the previous one, so the supervisor's accumulate-and-commit
	// per delivery attempt reconstructs exact totals.
	var shipped obs.Snapshot
	spanCursor := 0
	var flightSeq uint64
	attach := func(m *workerMsg, unitID int) {
		if reg != nil {
			cur := reg.Snapshot()
			if d := cur.Diff(shipped); !d.Empty() {
				m.Metrics = &d
			}
			shipped = cur
		}
		if tracer != nil {
			if tail := tracer.EventsSince(spanCursor); len(tail) > 0 {
				spanCursor += len(tail)
				for i := range tail {
					// Tag each span with its unit (offset by one so unit
					// 0 survives omitempty), cloning Args — the slice
					// headers are copies but Args pointers are shared
					// with the tracer's retained events.
					a := obs.SpanArgs{}
					if tail[i].Args != nil {
						a = *tail[i].Args
					}
					a.Unit = unitID + 1
					tail[i].Args = &a
				}
				m.Spans = tail
			}
		}
		if flight != nil {
			var tail []obs.FlightEvent
			for _, ev := range flight.Events() {
				if ev.Seq > flightSeq {
					tail = append(tail, ev)
				}
			}
			if len(tail) > 0 {
				flightSeq = tail[len(tail)-1].Seq
				m.Flight = tail
			}
		}
	}

	if err := enc.Encode(workerMsg{
		Type: "ready", Pid: os.Getpid(),
		TraceStartUnixNs: tracer.StartUnixNano(),
	}); err != nil {
		return 1
	}

	for {
		var um unitMsg
		if err := dec.Decode(&um); err != nil {
			if err == io.EOF {
				return 0 // supervisor closed the channel: clean shutdown
			}
			fmt.Fprintf(stderr, "psan-worker: reading unit: %v\n", err)
			return 1
		}
		// The cut is checkpoint-shaped on purpose: Validate catches a
		// supervisor/worker skew (checkpoint version, program, mode,
		// seed, model, window)
		// before any divergent exploration happens.
		if err := um.Cut.Validate(prog.Name(), opt); err != nil {
			enc.Encode(workerMsg{Type: "fatal", ID: um.ID, Error: err.Error(), Permanent: true})
			continue
		}
		if chaos.poison == um.ID {
			fmt.Fprintf(stderr, "psan-worker: chaos: poisoning unit %d\n", um.ID)
			selfKill()
		}
		// Heartbeats ride the per-execution hook, rate-limited to a
		// quarter lease so chatty units don't flood the pipe. A hung
		// execution stops calling the hook, the heartbeats stop, and the
		// supervisor's lease expires: hangs need no extra detection.
		hbEvery := time.Duration(um.LeaseMS) * time.Millisecond / 4
		lastHB := time.Now()
		hooks := explore.UnitHooks{
			OnExec: func(n int) {
				if um.Attempt == 0 && chaos.killAfter > 0 && n >= chaos.killAfter {
					fmt.Fprintf(stderr, "psan-worker: chaos: self-kill in unit %d after %d execs\n", um.ID, n)
					selfKill()
				}
				if um.Attempt == 0 && chaos.hangUnit == um.ID {
					fmt.Fprintf(stderr, "psan-worker: chaos: hanging in unit %d\n", um.ID)
					select {} // silent forever; the lease must reap us
				}
				if now := time.Now(); now.Sub(lastHB) >= hbEvery {
					lastHB = now
					m := workerMsg{Type: "hb", ID: um.ID, Execs: n}
					attach(&m, um.ID)
					enc.Encode(m)
				}
			},
			OnClassify: func(c explore.UnitClassification) {
				cc := c
				enc.Encode(workerMsg{Type: "classified", ID: um.ID, Class: &cc})
			},
		}
		ur, err := explore.RunUnit(prog, opt, um.Spec, hooks)
		if err != nil {
			enc.Encode(workerMsg{Type: "fatal", ID: um.ID, Error: err.Error(), Permanent: true})
			continue
		}
		m := workerMsg{Type: "result", ID: um.ID, Result: ur}
		attach(&m, um.ID)
		if err := enc.Encode(m); err != nil {
			fmt.Fprintf(stderr, "psan-worker: writing result: %v\n", err)
			return 1
		}
	}
}
