//go:build psanpoison

package trace

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// TestPoisonedSlotReadPanics: with the psanpoison tag, a read path that
// meets a released slot panics. The test plants a released store back
// into its word's byLoc list — what a sweep that missed a holder would
// leave behind — and asks Next for the word's later stores.
func TestPoisonedSlotReadPanics(t *testing.T) {
	tr := New()
	tr.SetWindow(2)
	var released *Store
	for i := 0; i < 8; i++ {
		s := issueCommit(tr, 0, 0x1000, memmodel.Value(i), "s")
		if i == 2 {
			released = s
		}
	}
	init := tr.Initial(0x1000)
	retire(tr)
	if released.gen&1 == 0 {
		t.Fatal("store 2 was not released by the sweep")
	}
	list, _ := tr.Current().byLoc.Slot(wordKey(0x1000))
	*list = append([]*Store{released}, *list...)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "released store slot") {
			t.Fatalf("Next over a planted released store: recover() = %v, want a released-slot panic", r)
		}
	}()
	tr.Next(init, tr.NumCrashes()+1)
}
