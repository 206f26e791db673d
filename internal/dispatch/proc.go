// Worker process lifecycle: spawn, deliver-with-lease, reap.
package dispatch

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"time"

	"repro/internal/explore"
)

// stderrTailCap bounds the retained worker stderr (the poison record
// carries the tail, like ExecError carries a stack).
const stderrTailCap = 4096

// tailBuffer keeps the last stderrTailCap bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf) - stderrTailCap; n > 0 {
		t.buf = append(t.buf[:0], t.buf[n:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) Tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// procError is a failed delivery: the worker died, went silent past its
// lease, or reported a fatal.
type procError struct {
	reason     string // "worker-exit", "lease-expired", "fatal", "protocol"
	detail     string
	exitStatus string
	stderrTail string
	permanent  bool // redelivery cannot help (validation mismatch etc.)
}

func (e *procError) Error() string {
	s := fmt.Sprintf("%s: %s", e.reason, e.detail)
	if e.exitStatus != "" {
		s += " (" + e.exitStatus + ")"
	}
	return s
}

// proc is one live worker process. Its stdout is drained by a reader
// goroutine into events; closure of events means the process is gone,
// or sent a line that is no message (malformed says which).
type proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	enc    *json.Encoder
	events chan workerMsg
	stderr *tailBuffer
	// malformed is the decode error of a line that arrived whole but is
	// no worker message — bad JSON, or a field this supervisor does not
	// know, such as an older binary's result shape. It is set before
	// events closes; nil when the stream just ended.
	malformed error

	// From the ready handshake: the worker's OS pid and its tracer's
	// clock origin (Unix ns), for span ingestion and rebasing.
	pid        int
	traceStart int64

	waitOnce sync.Once
	waitErr  error
}

// spawn starts a worker process and completes the hello/ready
// handshake within lease.
func spawn(bin string, args, env []string, hello helloMsg, lease time.Duration) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	tb := &tailBuffer{}
	cmd.Stderr = tb
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{
		cmd:    cmd,
		stdin:  stdin,
		enc:    json.NewEncoder(stdin),
		events: make(chan workerMsg, 16),
		stderr: tb,
	}
	go p.read(stdout)
	if err := p.enc.Encode(hello); err != nil {
		p.kill()
		return nil, fmt.Errorf("hello: %w", err)
	}
	select {
	case m, ok := <-p.events:
		if !ok {
			err := &procError{reason: "worker-exit", detail: "died before ready",
				exitStatus: p.exitStatus(), stderrTail: tb.Tail()}
			p.kill()
			return nil, err
		}
		if m.Type != "ready" {
			p.kill()
			return nil, fmt.Errorf("handshake: got %q (%s)", m.Type, m.Error)
		}
		p.pid = m.Pid
		p.traceStart = m.TraceStartUnixNs
	case <-time.After(lease):
		p.kill()
		return nil, errors.New("handshake: timed out")
	}
	return p, nil
}

// endReader records the error that ended its reader.
type endReader struct {
	r   io.Reader
	err error
}

func (e *endReader) Read(b []byte) (int, error) {
	n, err := e.r.Read(b)
	if err != nil {
		e.err = err
	}
	return n, err
}

// read decodes the worker's stdout into events until it ends or holds a
// line that is no message. Decoding is strict: a field the supervisor
// does not know is a protocol fault, not something to drop. A decode
// error the stream did not cause — the bytes arrived, they just do not
// decode — is recorded as malformed; one that a SIGKILL mid-write or
// the pipe's closing caused is a dead worker.
func (p *proc) read(stdout io.Reader) {
	src := &endReader{r: stdout}
	dec := json.NewDecoder(bufio.NewReader(src))
	dec.DisallowUnknownFields()
	for {
		var m workerMsg
		if err := dec.Decode(&m); err != nil {
			if src.err == nil {
				p.malformed = err
			}
			close(p.events)
			return
		}
		p.events <- m
	}
}

// kill SIGKILLs the process and reaps it.
func (p *proc) kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.reap()
}

// reap waits for the process once and caches the exit error.
func (p *proc) reap() {
	p.waitOnce.Do(func() {
		p.stdin.Close()
		p.waitErr = p.cmd.Wait()
	})
}

// exitStatus renders the process's exit state ("signal: killed",
// "exit status 2", ...). Callers must know the process is dead (events
// closed) or have killed it.
func (p *proc) exitStatus() string {
	p.reap()
	if p.waitErr == nil {
		return "exit status 0"
	}
	return p.waitErr.Error()
}

// deliver sends one unit and runs its lease: every worker message
// (heartbeat, classification, result) renews the deadline; silence past
// the lease kills the worker. onClassify fires from this goroutine, and
// onTelemetry (also optional) fires for every heartbeat or result
// message carrying a telemetry payload, before the result is returned.
// A non-nil error is always a *procError, and after an error the proc
// is dead (deliver killed it or found it dead) — the caller discards
// it.
func (p *proc) deliver(um unitMsg, lease time.Duration, onClassify func(explore.UnitClassification), onTelemetry func(workerMsg)) (*explore.UnitResult, error) {
	if err := p.enc.Encode(um); err != nil {
		pe := &procError{reason: "worker-exit", detail: "sending unit: " + err.Error(),
			exitStatus: p.exitStatus(), stderrTail: p.stderr.Tail()}
		p.kill()
		return nil, pe
	}
	timer := time.NewTimer(lease)
	defer timer.Stop()
	for {
		select {
		case m, ok := <-p.events:
			if !ok {
				if p.malformed != nil {
					p.kill()
					return nil, &procError{reason: "protocol", detail: "malformed message: " + p.malformed.Error(),
						stderrTail: p.stderr.Tail()}
				}
				pe := &procError{reason: "worker-exit", detail: "died mid-unit",
					exitStatus: p.exitStatus(), stderrTail: p.stderr.Tail()}
				return nil, pe
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(lease)
			switch m.Type {
			case "hb":
				// Renewal, plus any piggybacked telemetry.
				if onTelemetry != nil {
					onTelemetry(m)
				}
			case "classified":
				if m.ID == um.ID && m.Class != nil && onClassify != nil {
					onClassify(*m.Class)
				}
			case "result":
				if m.ID != um.ID || m.Result == nil {
					p.kill()
					return nil, &procError{reason: "protocol",
						detail: fmt.Sprintf("result for unit %d (want %d, payload %v)", m.ID, um.ID, m.Result != nil)}
				}
				// The fold walks the columns by index: a short stream, a
				// ragged column or a stray report offset would misfold.
				if err := m.Result.Validate(um.Spec, um.Cut.Window); err != nil {
					p.kill()
					return nil, &procError{reason: "protocol", detail: fmt.Sprintf("unit %d: %v", um.ID, err)}
				}
				if onTelemetry != nil {
					onTelemetry(m)
				}
				return m.Result, nil
			case "fatal":
				p.kill()
				return nil, &procError{reason: "fatal", detail: m.Error, permanent: m.Permanent,
					stderrTail: p.stderr.Tail()}
			}
		case <-timer.C:
			p.kill()
			return nil, &procError{reason: "lease-expired",
				detail:     fmt.Sprintf("no heartbeat within %v", lease),
				exitStatus: p.exitStatus(), stderrTail: p.stderr.Tail()}
		}
	}
}
