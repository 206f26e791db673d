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
	var releasedSlot int32
	for i := 0; i < 8; i++ {
		s := issueCommit(tr, 0, 0x1000, memmodel.Value(i), "s")
		if i == 2 {
			released, releasedSlot = s, int32(s.ref)-1
		}
	}
	init := tr.Initial(0x1000)
	retire(tr)
	if released.gen&1 == 0 {
		t.Fatal("store 2 was not released by the sweep")
	}
	l, _ := tr.Current().byLoc.Slot(wordKey(0x1000))
	l.head = StoreRef(releasedSlot + 1)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "released store slot") {
			t.Fatalf("Next over a planted released store: recover() = %v, want a released-slot panic", r)
		}
	}()
	tr.Next(init, tr.NumCrashes()+1)
}

// TestRetiredHandleResolvePoisoned: with the psanpoison tag, resolving
// a handle whose slot a sweep released panics, while the handles of the
// stores the sweep kept still resolve.
func TestRetiredHandleResolvePoisoned(t *testing.T) {
	tr := New()
	tr.SetWindow(2)
	var refs []StoreRef
	for i := 0; i < 8; i++ {
		refs = append(refs, issueCommit(tr, 0, 0x1000, memmodel.Value(i), "s").Ref())
	}
	retire(tr)
	stale, live := NoStore, NoStore
	for _, r := range refs {
		if tr.stores.at(int32(r)-1).gen&1 != 0 {
			stale = r
		} else {
			live = r
		}
	}
	if stale == NoStore || live == NoStore {
		t.Fatalf("sweep released %v of %v, want some but not all", stale, refs)
	}
	if s := tr.StoreAt(live); s.Ref() != live {
		t.Fatalf("StoreAt(%d) = %v with handle %d", live, s, s.Ref())
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "released store slot") {
			t.Fatalf("StoreAt of released handle %d: recover() = %v, want a released-slot panic", stale, r)
		}
	}()
	tr.StoreAt(stale)
}
