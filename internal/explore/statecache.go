// Post-crash state cache for model-checking mode.
//
// Two crash points that leave behind the same surviving persistent
// image lead to identical continuations: every post-crash load sees the
// same candidate set, the heap hands out the same addresses, and — at
// the *first* crash of an execution — the checker carries no constraint
// state yet (constraints only arise from reads of earlier
// sub-executions, and sub-execution 0 has none before it). So once one
// phase-0 crash target's post-crash enumeration has been explored,
// every later target with the same image can be pruned wholesale. This
// happens constantly in the ported benchmarks: any fence window that
// contains only loads, or flushes of already-persisted lines, yields
// the image of its neighbor.
//
// The key is (persistent-image hash, allocator mark):
//
//   - the image hash is the backend's PersistFingerprint. Every
//     built-in backend derives it from the shared persist.Image: per
//     cache line in address order, every sealed epoch's store history
//     (store IDs and values) and its persisted-prefix bounds [lo, hi].
//     Model-checking runs a fixed seed, so the pre-crash prefix is the
//     same instruction stream in every execution and store IDs name
//     identical stores. A future backend with extra post-crash-visible
//     state (anything that changes a later LoadCandidates result) must
//     fold that state into its fingerprint, or equal keys would merge
//     genuinely different continuations — see DESIGN.md,
//     "Persistency-model backends";
//   - the allocator mark (heap bytes used) distinguishes crash points
//     that differ only in volatile allocations, which post-crash phases
//     would re-allocate at different addresses.
//
// The cache is consulted once per subtree (all executions of a subtree
// share one phase-0 prefix, hence one image), and the spawn chain in
// pool.go registers images in subtree order, so the hit/miss pattern —
// and with it every count in Result — is identical for any worker
// count. Deeper crashes (programs with three or more phases) are not
// cached: their keys would also need the checker's constraint state and
// the pending crash-target choices of unreached phases.
//
// The cache is sharded: keys are striped over cacheShards independently
// locked segments by the low bits of the image hash, so concurrent
// workers probing different images never serialize on one mutex. The
// hit/miss verdict for a given key is decided entirely inside its
// shard, so sharding cannot change any verdict — only which lock a
// probe takes. Hit/miss totals are tallied from the subtrees'
// classifications (Assembler.classify).
//
// Known approximation: the op-budget counter is not part of the key, so
// a continuation that aborts on its budget could be deduplicated
// against one that would abort slightly later. Budgets are a safety
// net two orders of magnitude above real executions, so this does not
// affect verdicts.
package explore

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// cacheShards is the stripe count. Shard selection uses the low bits of
// the image hash (PersistFingerprint output is well-mixed), so the
// count must stay a power of two.
const cacheShards = 16

// cacheKey identifies a surviving persistent image.
type cacheKey struct {
	image uint64 // persist.Model.PersistFingerprint
	heap  int    // pmem.Heap.Used
}

// shard returns the stripe index the key lives in.
func (k cacheKey) shard() int {
	return int(k.image & (cacheShards - 1))
}

// stateKey computes the cache key of a just-crashed world.
func stateKey(w *pmem.World) cacheKey {
	return cacheKey{image: w.M.PersistFingerprint(), heap: w.Heap.Used()}
}

// cacheShard is one independently locked stripe of the cache.
type cacheShard struct {
	mu   sync.Mutex
	seen map[cacheKey]struct{}
	// images tracks distinct persistence fingerprints to split misses by
	// class (new image vs. seen image with a new heap mark). It is only
	// allocated when metrics are live, so the disabled path stays
	// byte-identical to a build with observability off.
	images map[uint64]struct{}
}

// stateCache records explored crash images, striped over cacheShards
// segments keyed by image fingerprint. The spawn chain already
// serializes classification lookups, but the per-shard mutexes keep the
// structure safe — and uncontended — under any call pattern.
type stateCache struct {
	shards  [cacheShards]cacheShard
	entries atomic.Int64 // total keys across shards (Entries gauge)
	met     obs.CacheMetrics
}

func newStateCache(met obs.CacheMetrics) *stateCache {
	c := &stateCache{met: met}
	// Shard maps are allocated lazily on first touch, so a run that only
	// probes a few images pays for the shards it uses.
	return c
}

// lookupOrRegister reports whether the key was already explored,
// registering it if not. The verdict is decided entirely inside the
// key's shard.
func (c *stateCache) lookupOrRegister(k cacheKey) (hit bool) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	c.met.ShardProbes.Inc()
	c.met.Probes.Inc()
	if s.seen == nil {
		s.seen = make(map[cacheKey]struct{})
	}
	if _, ok := s.seen[k]; ok {
		c.met.Hits.Inc()
		return true
	}
	s.seen[k] = struct{}{}
	c.met.Misses.Inc()
	if c.met.Probes != nil {
		if s.images == nil {
			s.images = make(map[uint64]struct{})
		}
		if _, ok := s.images[k.image]; ok {
			c.met.MissNewHeap.Inc()
		} else {
			s.images[k.image] = struct{}{}
			c.met.MissNewImage.Inc()
		}
	}
	c.met.Entries.Set(c.entries.Add(1))
	return false
}

// prime registers a key without touching the counters: checkpoint
// resume replays the pre-cut registrations so post-cut lookups see
// exactly the cache an uninterrupted run would have had.
func (c *stateCache) prime(k cacheKey) {
	s := &c.shards[k.shard()]
	s.mu.Lock()
	c.met.ShardProbes.Inc()
	if s.seen == nil {
		s.seen = make(map[cacheKey]struct{})
	}
	if _, ok := s.seen[k]; !ok {
		s.seen[k] = struct{}{}
		c.met.Entries.Set(c.entries.Add(1))
	}
	if c.met.Probes != nil {
		if s.images == nil {
			s.images = make(map[uint64]struct{})
		}
		// Replay the fingerprint too, so post-resume misses classify
		// against the same image set an uninterrupted run would have.
		s.images[k.image] = struct{}{}
	}
	s.mu.Unlock()
}
