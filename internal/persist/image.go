package persist

import (
	"cmp"
	"slices"

	"repro/internal/memmodel"
	"repro/internal/trace"
)

// epoch is the committed store history of one cache line within one
// crash-delimited sub-execution, together with the unresolved range of
// prefixes that may have persisted. A prefix length p with lo ≤ p ≤ hi
// means the first p stores of the epoch reached persistent memory.
type epoch struct {
	stores []*trace.Store
	lo, hi int
	// idx is the per-word position index of a sealed epoch, built word
	// by word on first use (see positions). It sits behind a pointer so
	// an epoch stays small: every touched line has a live epoch, and
	// most are never read through the crash image.
	idx *wordIndex
}

// wordIndex groups a sealed epoch's store positions by word, so a
// post-crash load visits only the stores to its own word rather than
// the line's whole history. Word w's positions, ascending, are
// pos[begin[w]:end[w]] once bit w of built is set; the retired ones
// before begin[w] are nil holes in the epoch (see Retire), which never
// reappear once killed, so begin only moves forward. The index is
// kept when the epoch is recycled and emptied at Seal, when the epoch
// takes a new history.
type wordIndex struct {
	built      uint8
	pos        []int32
	begin, end [memmodel.WordsPerLine]int32
}

// positions returns the positions of word w's unretired stores in the
// sealed epoch, ascending, indexing the word on first use.
func (ep *epoch) positions(w int) []int32 {
	if x := ep.idx; x != nil && x.built&(1<<w) != 0 {
		return x.pos[x.begin[w]:x.end[w]]
	}
	return ep.indexWord(w)
}

// indexWord appends word w's positions to the epoch's index in one pass
// over the history — the pass a linear candidate walk would make — so
// an epoch read through one or two words costs what it did without an
// index, and every later walk of those words skips the rest of the
// line. Holes already in the history are skipped: they are retired
// stores, a prefix of their word's positions.
func (ep *epoch) indexWord(w int) []int32 {
	x := ep.idx
	if x == nil {
		x = &wordIndex{}
		ep.idx = x
	}
	b := len(x.pos)
	for i, s := range ep.stores {
		if s != nil && s.Addr.LineIndex() == w {
			s.CheckLive()
			x.pos = append(x.pos, int32(i))
		}
	}
	x.begin[w], x.end[w] = int32(b), int32(len(x.pos))
	x.built |= 1 << w
	return x.pos[b:]
}

// lineState is the full persistence state of one cache line: sealed
// epochs from previous sub-executions (oldest first) plus the live epoch
// of the current sub-execution. For the live epoch, lo is the number of
// stores guaranteed persistent by completed flushes; hi is unused until
// the epoch is sealed by a crash. A lineState outside the image's all
// list is clean: no sealed epochs and an empty live epoch.
type lineState struct {
	line   memmodel.Addr
	sealed []*epoch
	live   *epoch
}

// Image is the persistent-memory state shared by every backend: the
// per-cache-line committed store histories, their persisted-prefix
// ranges, and the lazy crash-image resolution that narrows them read by
// read. Backends differ in *when* stores commit and *when* persistence
// is guaranteed (buffers, flush/drain rules); they agree on what a
// sealed crash image is and how candidate sets are derived from it.
// Keeping that logic here keeps candidate ordering and fingerprints
// byte-identical across backends that produce the same commit and
// guarantee sequences.
//
// An Image is not safe for concurrent use, matching the Model contract.
type Image struct {
	name string // owning backend, for InvariantError attribution
	// lines finds a line's state by line index (addr>>6); all lists the
	// lines touched since the last Reset in creation order, which is
	// what Seal, Reset, Retire, Snapshot and Restore walk. A line
	// dropped from both keeps its lineState in its table slot for reuse.
	lines trace.Table[*lineState]
	all   []*lineState

	// epochFree recycles sealed epochs, word indexes included, across
	// Reset and Restore; Seal draws from it before allocating.
	epochFree []*epoch
	// fpLines is Fingerprint's line-sorting scratch.
	fpLines []*lineState
}

// NewImage returns an empty image owned by the named backend.
func NewImage(name string) *Image {
	im := &Image{}
	im.Init(name)
	return im
}

// Init readies an empty image in place, so backends can embed an Image
// by value and avoid a separate allocation per machine.
func (im *Image) Init(name string) {
	im.name = name
}

// lineKey is a line's table key.
func lineKey(a memmodel.Addr) uint64 { return uint64(a) >> 6 }

// Reset rewinds the image to empty, recycling cache-line records and
// sealed epochs: O(lines touched since the last Reset), not O(lines
// ever touched).
func (im *Image) Reset() {
	for _, ls := range im.all {
		im.clean(ls)
	}
	im.all = im.all[:0]
	im.lines.Reset()
}

// clean recycles a line's sealed epochs and empties its live epoch.
func (im *Image) clean(ls *lineState) {
	im.epochFree = append(im.epochFree, ls.sealed...)
	clear(ls.sealed)
	ls.sealed = ls.sealed[:0]
	ls.live.stores = ls.live.stores[:0]
	ls.live.lo, ls.live.hi = 0, 0
}

// newEpoch returns a zeroed epoch, recycled when possible.
func (im *Image) newEpoch() *epoch {
	if n := len(im.epochFree); n > 0 {
		ep := im.epochFree[n-1]
		im.epochFree = im.epochFree[:n-1]
		ep.stores = ep.stores[:0]
		ep.lo, ep.hi = 0, 0
		return ep
	}
	return &epoch{}
}

// line returns (creating on demand) the state of the line containing a.
// A line new to this execution reuses the clean lineState its table
// slot kept from an earlier one.
func (im *Image) line(a memmodel.Addr) *lineState {
	slot, ok := im.lines.Slot(lineKey(a))
	if ok {
		return *slot
	}
	ls := *slot
	if ls == nil {
		ls = &lineState{line: a.Line(), live: &epoch{}}
		*slot = ls
	}
	im.all = append(im.all, ls)
	return ls
}

// lookup returns the state of the line containing a, or nil if no
// operation touched the line in this execution.
func (im *Image) lookup(a memmodel.Addr) *lineState {
	ls, _ := im.lines.Get(lineKey(a))
	return ls
}

// Commit appends a committed store to its cache line's live history.
func (im *Image) Commit(st *trace.Store) {
	ls := im.line(st.Addr)
	ls.live.stores = append(ls.live.stores, st)
}

// LiveLen returns the committed-history length of the line containing a
// in the current sub-execution — the coverage an asynchronous flush
// records at issue/buffer-exit time.
func (im *Image) LiveLen(a memmodel.Addr) int {
	return len(im.line(a).live.stores)
}

// Guarantee marks every store committed so far to the line containing a
// as guaranteed persistent — the effect of a synchronous flush.
func (im *Image) Guarantee(a memmodel.Addr) {
	ls := im.line(a)
	if n := len(ls.live.stores); n > ls.live.lo {
		ls.live.lo = n
	}
}

// GuaranteeUpTo raises the guaranteed-persistent prefix of the line
// containing a to at least n — the effect of a drain completing an
// asynchronous flush whose coverage was n.
func (im *Image) GuaranteeUpTo(a memmodel.Addr, n int) {
	ls := im.line(a)
	if n > ls.live.lo {
		ls.live.lo = n
	}
}

// GuaranteedCount returns how many committed stores to the line
// containing a are guaranteed persistent in the current sub-execution.
func (im *Image) GuaranteedCount(a memmodel.Addr) int {
	if ls := im.lookup(a); ls != nil {
		return ls.live.lo
	}
	return 0
}

// Seal is the image half of a crash: each cache line's committed
// history is sealed into an epoch whose persisted prefix is any length
// from the flush-guaranteed lower bound up to the full history, and a
// fresh live epoch begins.
func (im *Image) Seal() {
	for _, ls := range im.all {
		if len(ls.live.stores) > 0 || ls.live.lo > 0 {
			ls.live.hi = len(ls.live.stores)
			if x := ls.live.idx; x != nil {
				// A recycled epoch's index describes its old history.
				x.built, x.pos = 0, x.pos[:0]
			}
			ls.sealed = append(ls.sealed, ls.live)
			ls.live = im.newEpoch()
		} else {
			// Nothing to seal: keep the (empty) live epoch.
			ls.live.lo, ls.live.hi = 0, 0
		}
	}
}

// AppendSealedCandidates appends to cands the stores of word a that may
// have survived past crashes, walking sealed epochs newest-first, and
// reports whether some epoch blocks visibility of anything older (its
// guaranteed prefix includes a store to a). When it does not, the caller
// appends the initial-value candidate.
func (im *Image) AppendSealedCandidates(cands []Candidate, a memmodel.Addr) ([]Candidate, bool) {
	ls := im.lookup(a)
	if ls == nil {
		return cands, false
	}
	w := a.LineIndex()
	for j := len(ls.sealed) - 1; j >= 0; j-- {
		ep := ls.sealed[j]
		idxs := ep.positions(w)
		if len(idxs) == 0 {
			continue
		}
		// The store at position i is visible for prefix lengths in
		// [i+1, next], where next is the position of the next store to
		// a (or the epoch length). These windows tile the history in
		// order, so the first one reaching ep.lo belongs to the store
		// before the first position at or past ep.lo, and none past the
		// first position at or past ep.hi can start below it. Retired
		// stores are excluded exactly: retirement only kills stores
		// whose window is already empty (see Retire), and positions —
		// which the prefix arithmetic depends on — are preserved.
		k, _ := slices.BinarySearch(idxs, int32(ep.lo))
		for k = max(k-1, 0); k < len(idxs) && int(idxs[k]) < ep.hi; k++ {
			i := int(idxs[k])
			next := len(ep.stores)
			if k+1 < len(idxs) {
				next = int(idxs[k+1])
			}
			lo := max(ep.lo, i+1)
			hi := min(ep.hi, next)
			if lo <= hi {
				s := ep.stores[i]
				s.CheckLive()
				cands = append(cands, Candidate{Store: s, Resolve: true, Epoch: j, LoNew: lo, HiNew: hi})
			}
		}
		// Older epochs are visible only if this epoch's prefix can
		// exclude all stores to a.
		if ep.lo > int(idxs[0]) {
			return cands, true
		}
	}
	return cands, false
}

// Resolve narrows epoch ranges so that future reads agree with the
// chosen candidate. tr and loc identify the access's source location,
// carried into the InvariantError panic raised when narrowing exposes
// an internal inconsistency.
func (im *Image) Resolve(a memmodel.Addr, c Candidate, tr *trace.Trace, loc trace.LocID) {
	if !c.Resolve {
		return // volatile read: nothing to narrow
	}
	ls := im.lookup(a)
	if ls == nil {
		return
	}
	// All epochs newer than the chosen one must exclude their stores
	// to a; for the initial value (Epoch -1 via sealed path) every
	// epoch must. Each one's bound is its first unretired store to a: a
	// retired first store implies the guaranteed prefix already covers
	// a newer one, so the narrowing it would have asked for cannot be
	// asked for any more.
	w := a.LineIndex()
	for j := len(ls.sealed) - 1; j > c.Epoch; j-- {
		ep := ls.sealed[j]
		if idxs := ep.positions(w); len(idxs) > 0 && ep.hi > int(idxs[0]) {
			ep.hi = int(idxs[0])
			if ep.lo > ep.hi {
				panic(InvariantError{Model: im.name, Check: "crash-image resolution", Addr: a, Loc: tr.LocString(loc)})
			}
		}
	}
	if c.Epoch >= 0 {
		ep := ls.sealed[c.Epoch]
		ep.lo, ep.hi = c.LoNew, c.HiNew
		if ep.lo > ep.hi {
			panic(InvariantError{Model: im.name, Check: "prefix range", Addr: a, Loc: tr.LocString(loc)})
		}
	}
}

// Retire is the image half of a bounded-window retirement: it pins (via
// mark) every store some future load could still read through the crash
// image, and unlinks the entries that provably cannot be candidates
// ever again so the trace sweep may release them.
//
// A store at epoch index i is visible exactly for persisted-prefix
// lengths in [i+1, next], where next is the position of the next store
// to the same word (or the epoch length). The guaranteed lower bound
// ep.lo only ever rises — flushes raise it live, Resolve narrows it
// upward when a read commits to a newer survivor — so once next < ep.lo
// the window [max(lo,i+1), min(hi,next)] is empty forever: the entry is
// dead and becomes a nil hole (positions carry the prefix arithmetic,
// so the slot must stay). Everything else is marked. The newest entry
// per word has no follower and always survives, which is what keeps
// final-heap reconstruction's address set intact.
//
// Since positions per word ascend, the killed entries of a word are a
// prefix of its unretired ones. A sealed epoch's kills therefore just
// advance each word's begin in the word index, and only the survivors
// are visited to be marked; the candidate walk in
// AppendSealedCandidates sees the same (lo, hi) windows and the same
// blocked verdict it would have computed on the full history. The live
// epoch, still growing, is swept linearly.
func (im *Image) Retire(mark func(*trace.Store)) {
	for _, ls := range im.all {
		for _, ep := range ls.sealed {
			retireSealed(ep, mark)
		}
		retireEpoch(ls.live, mark)
	}
}

// retireSealed applies the kill rule to a sealed epoch through its word
// index; see Retire.
func retireSealed(ep *epoch, mark func(*trace.Store)) {
	for w := range memmodel.WordsPerLine {
		idxs := ep.positions(w)
		k := 0
		for k+1 < len(idxs) && int(idxs[k+1]) < ep.lo {
			ep.stores[idxs[k]] = nil
			k++
		}
		ep.idx.begin[w] += int32(k)
		for _, i := range idxs[k:] {
			mark(ep.stores[i])
		}
	}
}

// retireEpoch applies the kill rule to the live epoch by one backward
// sweep; see Retire.
func retireEpoch(ep *epoch, mark func(*trace.Store)) {
	// next holds, per word of the line, 1 + the nearest following
	// non-hole index (0: none yet). A previously killed follower is fine
	// to stand in for a live one: kills only happen below ep.lo, so the
	// comparison agrees.
	var next [memmodel.WordsPerLine]int
	for i := len(ep.stores) - 1; i >= 0; i-- {
		s := ep.stores[i]
		if s == nil {
			continue
		}
		w := s.Addr.LineIndex()
		if j := next[w]; j > 0 && j-1 < ep.lo {
			ep.stores[i] = nil
		} else {
			mark(s)
		}
		next[w] = i + 1
	}
}

// epochBounds is the restorable state of one sealed epoch: its
// persisted-prefix range. The store history itself is immutable after
// Seal, so bounds are all a snapshot needs per epoch.
type epochBounds struct {
	lo, hi int
}

// ImageSnapshot captures the restorable state of an Image at a crash
// boundary. Take it immediately after Seal, when every live epoch is
// empty: the snapshot then consists solely of per-line sealed-epoch
// counts and prefix bounds, so its cost is O(sealed epochs), not
// O(stores). Lines are identified by their position in the image's
// creation-order line list, so a snapshot belongs to the image (and the
// execution) it was taken from, like the trace mark it travels with.
type ImageSnapshot struct {
	// bounds holds every line's sealed-epoch bounds back to back; the
	// line at position i owns bounds[ends[i-1]:ends[i]].
	bounds []epochBounds
	ends   []int32
}

// Snapshot captures the image's state for a later Restore. The caller
// must be at a crash boundary (immediately after Seal).
func (im *Image) Snapshot() *ImageSnapshot {
	n := 0
	for _, ls := range im.all {
		n += len(ls.sealed)
	}
	snap := &ImageSnapshot{bounds: make([]epochBounds, 0, n), ends: make([]int32, len(im.all))}
	for i, ls := range im.all {
		for _, ep := range ls.sealed {
			snap.bounds = append(snap.bounds, epochBounds{lo: ep.lo, hi: ep.hi})
		}
		snap.ends[i] = int32(len(snap.bounds))
	}
	return snap
}

// Restore rewinds the image to a previously captured snapshot: epochs
// sealed since the snapshot are recycled, prefix bounds narrowed by
// post-snapshot reads are widened back, and live epochs restart empty
// (they were empty when the snapshot was taken). Lines first touched
// after the snapshot are cleaned and dropped, as if never touched.
func (im *Image) Restore(snap *ImageSnapshot) {
	if len(snap.ends) > len(im.all) {
		panic("persist: image snapshot restored outside the execution it was taken in")
	}
	start := int32(0)
	for i, ls := range im.all {
		if i >= len(snap.ends) {
			im.clean(ls)
			im.lines.Delete(lineKey(ls.line))
			continue
		}
		bs := snap.bounds[start:snap.ends[i]]
		start = snap.ends[i]
		if len(ls.sealed) > len(bs) {
			im.epochFree = append(im.epochFree, ls.sealed[len(bs):]...)
			clear(ls.sealed[len(bs):])
			ls.sealed = ls.sealed[:len(bs)]
		}
		for j, ep := range ls.sealed {
			ep.lo, ep.hi = bs[j].lo, bs[j].hi
		}
		ls.live.stores = ls.live.stores[:0]
		ls.live.lo, ls.live.hi = 0, 0
	}
	im.all = im.all[:len(snap.ends)]
}

// Fingerprint hashes the image's persistent state: every cache line's
// sealed store history (IDs and values) together with its
// persisted-prefix bounds. Call it immediately after Seal, when the
// live epochs are empty — two images with equal fingerprints then
// present identical candidate sets to every future post-crash load.
// Store IDs are deterministic per instruction-stream prefix, so across
// executions of one deterministically replayed program, equal
// fingerprints mean the surviving images are the same image, not merely
// similar ones.
func (im *Image) Fingerprint() uint64 {
	lines := im.fpLines[:0]
	for _, ls := range im.all {
		if len(ls.sealed) > 0 {
			lines = append(lines, ls)
		}
	}
	slices.SortFunc(lines, func(a, b *lineState) int { return cmp.Compare(a.line, b.line) })
	im.fpLines = lines
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		// FNV-1a over the value's bytes, low to high.
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, ls := range lines {
		mix(uint64(ls.line))
		mix(uint64(len(ls.sealed)))
		for _, ep := range ls.sealed {
			mix(uint64(ep.lo))
			mix(uint64(ep.hi))
			mix(uint64(len(ep.stores)))
			for _, s := range ep.stores {
				if s == nil {
					// Retired entry: fingerprints are only consumed by the
					// state cache, which bounded-window mode forces off,
					// but stay well-defined regardless.
					mix(0)
					continue
				}
				mix(uint64(s.ID))
				mix(uint64(s.Value))
			}
		}
	}
	return h
}
