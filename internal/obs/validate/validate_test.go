package validate

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sampleTracer() *obs.Tracer {
	tr := obs.NewTracer()
	tr.NameThread(0, "campaign")
	tr.NameThread(1, "worker-1")
	start := tr.Now()
	tr.Complete(1, "explore", "execution", start, time.Millisecond, 0)
	tr.Complete(1, "pmem", "crash-resolution", start, 100*time.Microsecond, 0)
	tr.Instant(0, "explore", "stop", "deadline")
	return tr
}

func TestValidateTracerOutput(t *testing.T) {
	tr := sampleTracer()

	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	cs, err := Chrome(&chrome)
	if err != nil {
		t.Fatalf("chrome trace rejected: %v", err)
	}
	if cs.Spans != 2 || cs.Timeline != 1 {
		t.Fatalf("chrome stats = %+v", cs)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"not json", "{", "parse chrome trace"},
		{"missing traceEvents", `{"other":1}`, "missing traceEvents"},
		{"no spans", `{"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0,"ts":0}]}`, "no complete"},
		{"bad ph", `{"traceEvents":[{"name":"e","ph":"Z","pid":0,"tid":0,"ts":0}]}`, "unsupported ph"},
		{"missing ts", `{"traceEvents":[{"name":"e","ph":"X","pid":0,"tid":0}]}`, "missing pid/tid/ts"},
		{"negative dur", `{"traceEvents":[{"name":"e","ph":"X","pid":0,"tid":0,"ts":1,"dur":-5}]}`, "negative dur"},
	}
	for _, tc := range cases {
		_, err := Chrome(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}
