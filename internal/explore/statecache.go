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
// share one phase-0 prefix, hence one image), and the Scheduler's spawn
// chain registers images in subtree order, so the hit/miss pattern —
// and with it every count in Result — is identical for any worker
// count. Hit/miss totals are tallied from the subtrees' classifications
// (assembler.classify).
//
// This is the engine's one pruning key. Deeper crashes (programs with
// three or more phases) are not cached: their keys would also need the
// checker's constraint state and the pending crash-target choices of
// unreached phases, and no shipped program has a third phase (DESIGN.md,
// "Prefix snapshots and the state cache").
//
// Known approximation: the op-budget counter is not part of the key, so
// a continuation that aborts on its budget could be deduplicated
// against one that would abort slightly later. Budgets are a safety
// net two orders of magnitude above real executions, so this does not
// affect verdicts.
package explore

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// cacheKey identifies a surviving persistent image.
type cacheKey struct {
	image uint64 // persist.Model.PersistFingerprint
	heap  int    // pmem.Heap.Used
}

// stateKey computes the cache key of a just-crashed world.
func stateKey(w *pmem.World) cacheKey {
	return cacheKey{image: w.M.PersistFingerprint(), heap: w.Heap.Used()}
}

// stateCache records explored crash images. The spawn chain already
// serializes every lookupOrRegister and prime call (a subtree
// classifies before its successor exists), so one mutex is never
// contended; it keeps the structure safe under any call pattern.
type stateCache struct {
	mu   sync.Mutex
	seen map[cacheKey]struct{}
	// images tracks distinct persistence fingerprints to split misses by
	// class (new image vs. seen image with a new heap mark). It is only
	// allocated when metrics are live, so the disabled path stays
	// byte-identical to a build with observability off.
	images map[uint64]struct{}
	met    obs.CacheMetrics
}

func newStateCache(met obs.CacheMetrics) *stateCache {
	c := &stateCache{seen: make(map[cacheKey]struct{}), met: met}
	if met.Probes != nil {
		c.images = make(map[uint64]struct{})
	}
	return c
}

// lookupOrRegister reports whether the key was already explored,
// registering it if not.
func (c *stateCache) lookupOrRegister(k cacheKey) (hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met.Probes.Inc()
	if _, ok := c.seen[k]; ok {
		c.met.Hits.Inc()
		return true
	}
	c.seen[k] = struct{}{}
	c.met.Misses.Inc()
	if c.images != nil {
		if _, ok := c.images[k.image]; ok {
			c.met.MissNewHeap.Inc()
		} else {
			c.images[k.image] = struct{}{}
			c.met.MissNewImage.Inc()
		}
	}
	c.met.Entries.Set(int64(len(c.seen)))
	return false
}

// prime registers a key without touching the counters: checkpoint
// resume replays the pre-cut registrations so post-cut lookups see
// exactly the cache an uninterrupted run would have had.
func (c *stateCache) prime(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen[k] = struct{}{}
	c.met.Entries.Set(int64(len(c.seen)))
	if c.images != nil {
		// Replay the fingerprint too, so post-resume misses classify
		// against the same image set an uninterrupted run would have.
		c.images[k.image] = struct{}{}
	}
}
