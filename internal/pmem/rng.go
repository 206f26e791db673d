package pmem

// lazySource is math/rand's additive lagged Fibonacci generator
// (x[n] = x[n-273] + x[n-607], DP Mitchell and JA Reeds) with O(1)
// seeding. math/rand's Seed fills all 607 register words up front —
// 1,841 Park–Miller steps — which dominates a random-mode execution of
// a few hundred operations, since the world reseeds every execution.
// Here Seed only records the reduced seed and opens a new generation;
// each register word is materialized on first touch, from the closed
// form of the Park–Miller sequence: the seeder's n-th state is
// seed·48271ⁿ mod (2³¹−1), so word i needs three table lookups and
// three multiplications. The stream is bit-identical to
// rand.NewSource's for every seed (TestRandSourceMatchesMathRand), so
// the campaigns' pinned seeds and explored sets are unchanged.
type lazySource struct {
	seed      uint64 // reduced seed, in [1, 2³¹−2]
	gen       uint32 // current seeding generation
	tap, feed int
	vec       [rngLen]int64
	// vgen[i] is the generation vec[i] was materialized in; a word whose
	// vgen lags gen still holds a previous seed's value.
	vgen [rngLen]uint32
	// lazy counts the draws left until every register word has been
	// touched since the last Seed. In the first 334 draws the feed index
	// sweeps words 333..0 and the tap index 606..273, so together they
	// touch all 607 and later draws skip the materialization checks.
	lazy int
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// seedMul is the Park–Miller multiplier math/rand's seeder uses.
	seedMul = 48271
)

// seedPow[i] holds 48271^(21+3i+j) mod (2³¹−1) for j = 0, 1, 2: the
// seeder positions whose states math/rand combines into register word
// i (20 discarded warm-up steps, then three steps per word).
var seedPow = func() (t [rngLen][3]uint64) {
	x := uint64(1)
	for n := 1; n < 21+3*rngLen; n++ {
		x = x * seedMul % int32max
		if n >= 21 {
			t[(n-21)/3][(n-21)%3] = x
		}
	}
	return t
}()

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the stream rand.NewSource(seed) yields.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.lazy = rngLen - rngTap
	s.gen++
	if s.gen == 0 {
		// 2³² reseeds later the generation counter wrapped: forget every
		// stamp so no stale word can pass for current.
		clear(s.vgen[:])
		s.gen = 1
	}
}

// materialize computes register word i if this is its first touch
// since the last Seed.
func (s *lazySource) materialize(i int) {
	if s.vgen[i] == s.gen {
		return
	}
	p := &seedPow[i]
	u := int64(s.seed*p[0]%int32max) << 40
	u ^= int64(s.seed*p[1]%int32max) << 20
	u ^= int64(s.seed * p[2] % int32max)
	s.vec[i] = u ^ rngCooked[i]
	s.vgen[i] = s.gen
}

// Uint64 returns the next 64-bit value of the stream.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.lazy > 0 {
		s.lazy--
		s.materialize(s.feed)
		s.materialize(s.tap)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value of the stream.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
