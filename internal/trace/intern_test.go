package trace

import (
	"fmt"
	"strings"
	"testing"
)

// internLabels are string literals shaped like port labels, so the
// interner sees the same string data on every call, as it does from a
// port's call site.
var internLabels = []string{
	"cceh: insert: store bucket key", "cceh: insert: store bucket value",
	"cceh: insert: flush bucket", "cceh: get: load bucket key",
	"cceh: split: store new segment", "cceh: split: store directory entry",
	"fast_fair: insert: shift entry right", "fast_fair: insert: store last index",
	"fast_fair: search: load entry pointer", "fast_fair: split: store sibling",
	"p-art: insert: store leaf key", "p-art: insert: store child pointer",
	"p-art: lookup: load node prefix", "p-bwtree: consolidate: store delta",
	"p-clht: put: store bucket lock", "p-clht: put: store key slot",
	"p-clht: get: load key slot", "p-hot: insert: store compound node",
	"p-masstree: insert: store permutation", "p-masstree: get: load permutation",
	"redis: set: store dict entry", "redis: set: store value object",
	"redis: get: load dict entry", "memcached: set: store item header",
	"memcached: get: load item header", "recipe: commit: store log tail",
}

// internRef is the plain map the cached interner must agree with: the
// next dense ID on first sight, ID 0 for "".
type internRef map[string]LocID

func (r internRef) intern(s string) LocID {
	id, ok := r[s]
	if !ok {
		id = LocID(len(r))
		r[s] = id
	}
	return id
}

// checkIntern interns s in both and fails on any disagreement.
func checkIntern(t testing.TB, in *Interner, ref internRef, s string) {
	t.Helper()
	got, want := in.Intern(s), ref.intern(s)
	if got != want {
		t.Fatalf("Intern(%q) = %d, reference %d", s, got, want)
	}
	if in.Str(got) != s {
		t.Fatalf("Str(Intern(%q)) = %q", s, in.Str(got))
	}
	if in.Len() != len(ref) {
		t.Fatalf("Len = %d, reference %d", in.Len(), len(ref))
	}
}

// collidingClones returns n copies of distinct labels whose string data
// all lands in one cache slot.
func collidingClones(n int) []string {
	bySlot := map[int][]string{}
	for i := 0; ; i++ {
		s := strings.Clone(fmt.Sprintf("collide-%d", i))
		slot := slotOf(s)
		bySlot[slot] = append(bySlot[slot], s)
		if len(bySlot[slot]) == n {
			return bySlot[slot]
		}
	}
}

// TestInternerCacheMatchesMap: literal labels, clones of them (same
// content at another address), fmt.Sprintf-built labels (a fresh address
// on every call) and labels whose data shares one cache slot all get the
// IDs a plain map assigns, over several interleaved rounds; and a cache
// hit allocates nothing and never consults the map.
func TestInternerCacheMatchesMap(t *testing.T) {
	in, ref := NewInterner(), internRef{"": NoLoc}
	colliding := collidingClones(4)
	for round := 0; round < 4; round++ {
		checkIntern(t, in, ref, "")
		for i, s := range internLabels {
			checkIntern(t, in, ref, s)
			checkIntern(t, in, ref, strings.Clone(s))
			checkIntern(t, in, ref, fmt.Sprintf("sprintf label %d", (i+round)%7))
		}
		for i := range colliding {
			// Alternate two colliding labels so each evicts the other.
			checkIntern(t, in, ref, colliding[i])
			checkIntern(t, in, ref, colliding[(i+round)%len(colliding)])
		}
	}

	// Hits: labels whose data lands in distinct slots, so once warm each
	// stays cached. With the map gone, a lookup that reached it would
	// find nothing and then panic assigning to the nil map.
	hot, used := []string(nil), map[int]bool{}
	for _, s := range internLabels {
		if slot := slotOf(s); !used[slot] {
			used[slot] = true
			hot = append(hot, s)
		}
	}
	for _, s := range hot {
		in.Intern(s)
	}
	ids := in.ids
	in.ids = nil
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range hot {
			if in.Intern(s) != ref[s] {
				t.Fatalf("cached Intern(%q) changed its ID", s)
			}
		}
	})
	in.ids = ids
	if allocs != 0 {
		t.Fatalf("cache hits allocate %v times per run", allocs)
	}
}

// FuzzInterner: on any sequence of labels, drawn fresh from the input,
// re-used at their original address, or cloned to a new one, the cached
// interner assigns exactly the IDs of a plain map.
func FuzzInterner(f *testing.F) {
	f.Add("a\x00b\x00a\x01\x00\x02a")
	f.Add("cceh: insert\x00\x00cceh: insert\x02\x01\x01")
	f.Add("\x00\x00\x00")
	f.Fuzz(func(t *testing.T, data string) {
		in, ref := NewInterner(), internRef{"": NoLoc}
		var seen []string
		// Split on NUL; a label starting with \x01 or \x02 re-uses (or
		// clones) an earlier label instead of naming a new one.
		for _, part := range strings.Split(data, "\x00") {
			s := part
			if len(part) > 0 && part[0] <= 2 && len(seen) > 0 {
				s = seen[len(part)%len(seen)]
				if part[0] == 2 {
					s = strings.Clone(s)
				}
			}
			seen = append(seen, s)
			checkIntern(t, in, ref, s)
		}
	})
}

// internSink keeps BenchmarkIntern's calls from being optimized away.
var internSink LocID

// BenchmarkIntern measures the per-op label lookup: a warm literal
// (the port call-site case), a clone of a known label at an address the
// cache has not kept (the map fallback), and a label never seen before.
func BenchmarkIntern(b *testing.B) {
	const pool = 4096
	b.Run("hit", func(b *testing.B) {
		in := NewInterner()
		for _, s := range internLabels {
			in.Intern(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			internSink = in.Intern(internLabels[i%len(internLabels)])
		}
	})
	b.Run("clone", func(b *testing.B) {
		in := NewInterner()
		clones := make([]string, pool)
		for i := range clones {
			s := internLabels[i%len(internLabels)]
			in.Intern(s)
			clones[i] = strings.Clone(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			internSink = in.Intern(clones[i%pool])
		}
	})
	b.Run("first-sight", func(b *testing.B) {
		names := make([]string, pool)
		for i := range names {
			names[i] = fmt.Sprintf("%s #%d", internLabels[i%len(internLabels)], i)
		}
		var in *Interner
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%pool == 0 {
				b.StopTimer()
				in = NewInterner()
				b.StartTimer()
			}
			internSink = in.Intern(names[i%pool])
		}
	})
}
