package repro

// Regression test for the allocation-free hot path: the trace's
// location interner must round-trip every label. The World-reuse
// equivalence tests live in internal/explore (reuse_test.go), next to
// the fresh-world reference path they compare against.

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestInternerRoundTrip: interning is idempotent and Str inverts Intern,
// including across a Trace.Reset (the intern table deliberately
// survives resets so LocIDs stay stable for a reused world).
func TestInternerRoundTrip(t *testing.T) {
	tr := trace.New()
	labels := []string{"", "x=1", "flush x", "r1=x @fig2.pm:3", "x=1"}
	ids := make([]trace.LocID, len(labels))
	for i, s := range labels {
		ids[i] = tr.Intern(s)
		if got := tr.LocString(ids[i]); got != s {
			t.Fatalf("LocString(Intern(%q)) = %q", s, got)
		}
	}
	if ids[0] != trace.NoLoc {
		t.Fatalf("Intern(\"\") = %d, want NoLoc", ids[0])
	}
	if ids[1] != ids[4] {
		t.Fatalf("re-interning %q gave %d, want %d", labels[4], ids[4], ids[1])
	}
	if ids[1] == ids[2] || ids[2] == ids[3] {
		t.Fatal("distinct labels must get distinct ids")
	}
	before := append([]trace.LocID(nil), ids...)
	tr.Reset()
	for i, s := range labels {
		if got := tr.Intern(s); got != before[i] {
			t.Fatalf("after Reset, Intern(%q) = %d, want stable id %d", s, got, before[i])
		}
	}
	if !reflect.DeepEqual(ids, before) {
		t.Fatal("ids mutated")
	}
}
