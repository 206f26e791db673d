package pmem

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandSourceMatchesMathRand: the lazily seeded source yields exactly
// rand.NewSource's stream — across the seed reduction's edge cases, past
// two full wraps of the 607-word register, through every rand.Rand
// draw method the engine uses, and after a reseed mid-stream.
func TestRandSourceMatchesMathRand(t *testing.T) {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 7, 42, -2654435761,
		m, -m, 2 * m, -3 * m, m - 1, m + 1, -(m + 1),
		1 << 62, 1<<62 + 12345, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	const draws = 2*rngLen + 100
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLazySource(seed))
		for i := 0; i < draws; i++ {
			var g, w uint64
			switch i % 4 {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 2:
				g, w = uint64(got.Intn(1+i)), uint64(want.Intn(1+i))
			default:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			}
			if g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
		// Reseed mid-stream (the World.Reset path): half the register
		// words were materialized under the old seed, half never.
		for _, next := range []int64{seed + 1, seed, 0} {
			for i := 0; i < rngLen/2; i++ {
				got.Uint64()
				want.Uint64()
			}
			got.Seed(next)
			want.Seed(next)
			for i := 0; i < draws; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d reseeded to %d: draw %d = %#x, math/rand gives %#x", seed, next, i, g, w)
				}
			}
		}
	}
}

// TestRandSourceGenerationWrap: a reseed that wraps the generation
// counter still invalidates every materialized word.
func TestRandSourceGenerationWrap(t *testing.T) {
	s := newLazySource(3)
	for i := 0; i < rngLen; i++ {
		s.Uint64()
	}
	s.gen = math.MaxUint32
	s.Seed(5)
	want := rand.NewSource(5).(rand.Source64)
	for i := 0; i < 2*rngLen; i++ {
		if g, w := s.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d after wrap = %#x, math/rand gives %#x", i, g, w)
		}
	}
}
