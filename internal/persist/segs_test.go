package persist

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSegsMatchSlices drives a pool's segs through random pushes,
// truncations and releases next to plain slices and checks after every
// step that each seg views exactly its slice: a seg that moves keeps
// its elements, and no two segs share memory.
func TestSegsMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p segs[int32]
	ss := make([]seg, 16)
	want := make([][]int32, len(ss))
	next := int32(1)
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(ss))
		switch op := rng.Intn(10); {
		case op < 7:
			p.push(&ss[i], next)
			want[i] = append(want[i], next)
			next++
		case op < 9:
			n := rng.Intn(len(want[i]) + 1)
			ss[i].n = int32(n)
			want[i] = want[i][:n]
		default:
			p.release(&ss[i])
			want[i] = nil
		}
		for j := range ss {
			if got := p.view(ss[j]); !slices.Equal(got, want[j]) {
				t.Fatalf("step %d: seg %d views %v, want %v", step, j, got, want[j])
			}
		}
	}
}
