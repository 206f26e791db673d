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
	// stores is the history, trace.StoreRef handles in the image's hist
	// pool; a retired entry is a trace.NoStore hole.
	stores seg
	lo, hi int
	// idx is the per-word position index of a sealed epoch, built word
	// by word on first use (see positions), in the image's pos pool.
	// Word w's positions, ascending, are idx[idx[w]:idx[W+w]] (W is
	// memmodel.WordsPerLine) once bit w of built is set; the retired
	// ones before idx[w] are holes in the epoch (see Retire), which
	// never reappear once killed, so that begin only moves forward. A
	// live epoch is never indexed.
	idx   seg
	built uint8
}

// idxHeader is the length of an index's begin/end header.
const idxHeader = 2 * memmodel.WordsPerLine

// positions returns the positions of word w's unretired stores in the
// sealed epoch, ascending, indexing the word on first use. The slice is
// valid until the next index build.
func (im *Image) positions(ep *epoch, w int) []int32 {
	if ep.built&(1<<w) != 0 {
		x := im.pos.view(ep.idx)
		return x[x[w]:x[memmodel.WordsPerLine+w]]
	}
	return im.indexWord(ep, w)
}

// indexWord appends word w's positions to the epoch's index in one pass
// over the history — the pass a linear candidate walk would make — so
// an epoch read through one or two words costs what it did without an
// index, and every later walk of those words skips the rest of the
// line. Holes already in the history are skipped: they are retired
// stores, a prefix of their word's positions.
func (im *Image) indexWord(ep *epoch, w int) []int32 {
	for ep.idx.n < idxHeader {
		im.pos.push(&ep.idx, 0)
	}
	b := ep.idx.n
	for i, r := range im.hist.view(ep.stores) {
		if r != trace.NoStore && im.tr.StoreAt(r).Addr.LineIndex() == w {
			im.pos.push(&ep.idx, int32(i))
		}
	}
	x := im.pos.view(ep.idx)
	x[w], x[memmodel.WordsPerLine+w] = b, ep.idx.n
	ep.built |= 1 << w
	return x[b:]
}

// release returns a dropped epoch's history and index to their pools.
func (im *Image) release(ep *epoch) {
	im.hist.release(&ep.stores)
	im.pos.release(&ep.idx)
}

// lineState is the full persistence state of one cache line: sealed
// epochs from previous sub-executions (oldest first) plus the live epoch
// of the current sub-execution. For the live epoch, lo is the number of
// stores guaranteed persistent by completed flushes; hi is unused until
// the epoch is sealed by a crash. A lineState outside the image's all
// list is clean: no sealed epochs and an empty live epoch.
type lineState struct {
	line memmodel.Addr
	// sealed holds the sealed epochs in the image's eps pool.
	sealed seg
	live   epoch
	// cursor is the live epoch's retirement cursor.
	cursor
}

// cursor is how far retirement has walked an epoch that was live when
// it started (see Retire): positions below done have been pinned or
// killed, and the kill rule has been applied up to lo = cur, where
// last[w] is 1 + the position of word w's last store below cur (0:
// none).
type cursor struct {
	done, cur int32
	last      [memmodel.WordsPerLine]int32
}

// sealedAt names a sealed epoch: the j-th of the line at line.
type sealedAt struct {
	line memmodel.Addr
	j    int32
}

// sealedCursor is an epoch sealed since the last Retire with its
// cursor, which that Retire still has to advance.
type sealedCursor struct {
	sealedAt
	cursor
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
// Line states, sealed epochs, histories and word indexes live in
// arrays addressed by int32 indices and offsets, with stores named by
// trace.StoreRef handles resolved through the trace: the image holds no
// pointer per line, epoch or store for the garbage collector to follow.
//
// An Image is not safe for concurrent use, matching the Model contract.
type Image struct {
	name string // owning backend, for InvariantError attribution
	// tr is the trace the image's stores live in.
	tr *trace.Trace
	// lines finds a line's state by line index (addr>>6): 1 + its index
	// in states. all lists the lines touched since the last Reset in
	// creation order, which is what Seal, Reset, Retire, Snapshot and
	// Restore walk. A line dropped from both keeps its (clean) state,
	// named by its table slot, with its pooled capacity, for reuse. A
	// *lineState is valid until the next line creation.
	lines  trace.Table[int32]
	states []lineState
	all    []memmodel.Addr

	// eps holds every line's sealed epochs, hist the epochs' histories
	// and pos their word indexes. A dropped epoch returns its history
	// and index to their pools, where the next ones reuse them.
	eps  segs[epoch]
	hist segs[trace.StoreRef]
	pos  segs[int32]
	// fpLines is Fingerprint's line-sorting scratch.
	fpLines []*lineState

	// pins holds the sticky pins of the image's retirement candidates
	// (the trace); nil until the first Retire after Reset, and while it
	// is nil nothing below is tracked. dirty and dirtySealed list the
	// lines and sealed epochs whose lo moved since the last Retire (an
	// entry may repeat; a second visit finds nothing to do), and sealing
	// the epochs Seal sealed before their cursor caught up.
	pins        pinner
	dirty       []memmodel.Addr
	dirtySealed []sealedAt
	sealing     []sealedCursor
}

// pinner takes and drops the sticky pins of crash-image entries;
// *trace.Trace is the one the machines use.
type pinner interface {
	Pin(*trace.Store)
	Unpin(*trace.Store)
}

// NewImage returns an empty image owned by the named backend, over the
// stores of tr.
func NewImage(name string, tr *trace.Trace) *Image {
	im := &Image{}
	im.Init(name, tr)
	return im
}

// Init readies an empty image in place, so backends can embed an Image
// by value and avoid a separate allocation per machine.
func (im *Image) Init(name string, tr *trace.Trace) {
	im.name, im.tr = name, tr
}

// lineKey is a line's table key.
func lineKey(a memmodel.Addr) uint64 { return uint64(a) >> 6 }

// Reset rewinds the image to empty, recycling cache-line records and
// sealed epochs: O(lines touched since the last Reset), not O(lines
// ever touched).
func (im *Image) Reset() {
	for _, a := range im.all {
		im.clean(im.lookup(a))
	}
	im.all = im.all[:0]
	im.lines.Reset()
	im.pins = nil
	im.dirty, im.dirtySealed, im.sealing = im.dirty[:0], im.dirtySealed[:0], im.sealing[:0]
}

// clean drops a line's sealed epochs and empties its live epoch.
func (im *Image) clean(ls *lineState) {
	im.dropSealed(ls, 0)
	ls.live.stores.n = 0
	ls.live.lo, ls.live.hi = 0, 0
	ls.cursor = cursor{}
}

// dropSealed drops a line's sealed epochs from the n-th on.
func (im *Image) dropSealed(ls *lineState, n int) {
	sealed := im.eps.view(ls.sealed)
	for j := n; j < len(sealed); j++ {
		im.release(&sealed[j])
	}
	ls.sealed.n = int32(min(n, len(sealed)))
}

// line returns (creating on demand) the state of the line containing a.
// A line new to this execution reuses the clean lineState its table
// slot kept from an earlier one.
func (im *Image) line(a memmodel.Addr) *lineState {
	slot, ok := im.lines.Slot(lineKey(a))
	if !ok {
		if *slot == 0 {
			im.states = append(im.states, lineState{line: a.Line()})
			*slot = int32(len(im.states))
		}
		im.all = append(im.all, a.Line())
	}
	return &im.states[*slot-1]
}

// lookup returns the state of the line containing a, or nil if no
// operation touched the line in this execution.
func (im *Image) lookup(a memmodel.Addr) *lineState {
	if l, ok := im.lines.Get(lineKey(a)); ok {
		return &im.states[l-1]
	}
	return nil
}

// sealedEpoch resolves a sealedAt.
func (im *Image) sealedEpoch(at sealedAt) *epoch {
	return &im.eps.view(im.lookup(at.line).sealed)[at.j]
}

// Commit appends a committed store to its cache line's live history.
func (im *Image) Commit(st *trace.Store) {
	im.hist.push(&im.line(st.Addr).live.stores, st.Ref())
}

// LiveLen returns the committed-history length of the line containing a
// in the current sub-execution — the coverage an asynchronous flush
// records at issue/buffer-exit time.
func (im *Image) LiveLen(a memmodel.Addr) int {
	return int(im.line(a).live.stores.n)
}

// Guarantee marks every store committed so far to the line containing a
// as guaranteed persistent — the effect of a synchronous flush.
func (im *Image) Guarantee(a memmodel.Addr) {
	ls := im.line(a)
	if n := int(ls.live.stores.n); n > ls.live.lo {
		ls.live.lo = n
		im.touch(ls)
	}
}

// GuaranteeUpTo raises the guaranteed-persistent prefix of the line
// containing a to at least n — the effect of a drain completing an
// asynchronous flush whose coverage was n.
func (im *Image) GuaranteeUpTo(a memmodel.Addr, n int) {
	ls := im.line(a)
	if n > ls.live.lo {
		ls.live.lo = n
		im.touch(ls)
	}
}

// touch lists a line whose live lo rose for the next Retire.
func (im *Image) touch(ls *lineState) {
	if n := len(im.dirty); im.pins != nil && (n == 0 || im.dirty[n-1] != ls.line) {
		im.dirty = append(im.dirty, ls.line)
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
// fresh live epoch begins. Under retirement, an epoch sealed with work
// left for its cursor is listed for the next Retire with that cursor.
func (im *Image) Seal() {
	im.dirty = im.dirty[:0]
	for _, a := range im.all {
		ls := im.lookup(a)
		live := &ls.live
		if live.stores.n > 0 || live.lo > 0 {
			if im.pins != nil {
				if ls.done < live.stores.n || int(ls.cur) < live.lo {
					im.sealing = append(im.sealing, sealedCursor{sealedAt{a, ls.sealed.n}, ls.cursor})
				}
				ls.cursor = cursor{}
			}
			live.hi = int(live.stores.n)
			im.eps.push(&ls.sealed, *live)
			*live = epoch{}
		} else {
			// Nothing to seal: keep the (empty) live epoch.
			live.lo, live.hi = 0, 0
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
	sealed := im.eps.view(ls.sealed)
	for j := len(sealed) - 1; j >= 0; j-- {
		ep := &sealed[j]
		idxs := im.positions(ep, w)
		if len(idxs) == 0 {
			continue
		}
		hist := im.hist.view(ep.stores)
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
			next := len(hist)
			if k+1 < len(idxs) {
				next = int(idxs[k+1])
			}
			lo := max(ep.lo, i+1)
			hi := min(ep.hi, next)
			if lo <= hi {
				cands = append(cands, Candidate{Store: im.tr.StoreAt(hist[i]), Resolve: true, Epoch: j, LoNew: lo, HiNew: hi})
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
// chosen candidate. loc identifies the access's source location,
// carried into the InvariantError panic raised when narrowing exposes
// an internal inconsistency.
func (im *Image) Resolve(a memmodel.Addr, c Candidate, loc trace.LocID) {
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
	sealed := im.eps.view(ls.sealed)
	for j := len(sealed) - 1; j > c.Epoch; j-- {
		ep := &sealed[j]
		if idxs := im.positions(ep, w); len(idxs) > 0 && ep.hi > int(idxs[0]) {
			ep.hi = int(idxs[0])
			if ep.lo > ep.hi {
				panic(InvariantError{Model: im.name, Check: "crash-image resolution", Addr: a, Loc: im.tr.LocString(loc)})
			}
		}
	}
	if c.Epoch >= 0 {
		ep := &sealed[c.Epoch]
		ep.lo, ep.hi = c.LoNew, c.HiNew
		at := sealedAt{ls.line, int32(c.Epoch)}
		if n := len(im.dirtySealed); im.pins != nil && (n == 0 || im.dirtySealed[n-1] != at) {
			im.dirtySealed = append(im.dirtySealed, at)
		}
		if ep.lo > ep.hi {
			panic(InvariantError{Model: im.name, Check: "prefix range", Addr: a, Loc: im.tr.LocString(loc)})
		}
	}
}

// Retire runs one bounded-window retirement of the trace the image's
// stores live in. buffered and extraRoots pin the sweep's
// transient roots (the machine's store buffers, the checker's deferred
// reads); either may be nil. The image first brings its own sticky pins
// up to date — every entry a future load could still read through the
// crash image stays pinned, every entry that provably cannot be read
// again is killed and unpinned — and the trace then sweeps.
//
// A store at epoch index i is visible exactly for persisted-prefix
// lengths in [i+1, next], where next is the position of the next store
// to the same word (or the epoch length). The guaranteed lower bound
// ep.lo only ever rises — flushes raise it live, Resolve narrows it
// upward when a read commits to a newer survivor — so once next < ep.lo
// the window [max(lo,i+1), min(hi,next)] is empty forever: the entry is
// dead and becomes a hole (positions carry the prefix arithmetic,
// so the slot must stay). The newest entry per word has no follower and
// always survives, which is what keeps final-heap reconstruction's
// address set intact. This is the monotone persisted prefix: once a
// later store to a word lies inside the guaranteed prefix, the older
// one is never a crash candidate again, so its pin never comes back.
//
// Only what moved since the last retirement is visited. An epoch that
// was live at the last retirement advances its cursor: each position
// that fell below lo kills its word's previous store below lo, and each
// new position is pinned unless already killed. That covers the live
// epoch of a line that committed stores (the trace's recent commits) or
// whose lo rose, and every epoch sealed since. A sealed epoch whose lo
// Resolve moved kills through its word index, whose per-word positions
// ascend, so the killed entries of a word are a prefix of its unretired
// ones and just advance its begin; the candidate walk in
// AppendSealedCandidates sees the same (lo, hi) windows and the same
// blocked verdict it would have computed on the full history. The
// first Retire after Reset advances a fresh cursor over every epoch.
func (im *Image) Retire(buffered, extraRoots func(pin func(*trace.Store))) {
	im.retire(im.tr.RecentCommits(), im.tr)
	im.tr.Retire(buffered, extraRoots)
}

// retire updates the image's sticky pins through p; commits are the
// stores committed to live epochs since the last call.
func (im *Image) retire(commits []trace.StoreRef, p pinner) {
	if im.pins == nil {
		im.pins = p
		for _, a := range im.all {
			ls := im.lookup(a)
			sealed := im.eps.view(ls.sealed)
			for j := range sealed {
				im.advance(&sealed[j], &cursor{})
			}
			im.advance(&ls.live, &ls.cursor)
		}
		return
	}
	for i := range im.sealing {
		im.advance(im.sealedEpoch(im.sealing[i].sealedAt), &im.sealing[i].cursor)
	}
	im.sealing = im.sealing[:0]
	var prev memmodel.Addr
	for i, r := range commits {
		if line := im.tr.StoreAt(r).Addr.Line(); i == 0 || line != prev {
			ls := im.lookup(line)
			im.advance(&ls.live, &ls.cursor)
			prev = line
		}
	}
	for _, a := range im.dirty {
		ls := im.lookup(a)
		im.advance(&ls.live, &ls.cursor)
	}
	im.dirty = im.dirty[:0]
	for _, at := range im.dirtySealed {
		im.retireSealed(im.sealedEpoch(at))
	}
	im.dirtySealed = im.dirtySealed[:0]
}

// retireSealed applies the kill rule to a sealed epoch whose survivors
// are pinned, through its word index; see Retire.
func (im *Image) retireSealed(ep *epoch) {
	for w := range memmodel.WordsPerLine {
		idxs := im.positions(ep, w)
		hist := im.hist.view(ep.stores)
		k := 0
		for k+1 < len(idxs) && int(idxs[k+1]) < ep.lo {
			im.pins.Unpin(im.tr.StoreAt(hist[idxs[k]]))
			hist[idxs[k]] = trace.NoStore
			k++
		}
		im.pos.view(ep.idx)[w] += int32(k)
	}
}

// advance moves an epoch's cursor c to the epoch's current lo and
// length; see Retire. A position at or past c.cur is never a hole when
// the cursor reaches it: kills only hit positions below it. A killed
// store is its word's first unretired one, so in a sealed epoch's word
// index it sits at begin.
func (im *Image) advance(ep *epoch, c *cursor) {
	hist := im.hist.view(ep.stores)
	lo := int32(min(ep.lo, len(hist)))
	for p := c.cur; p < lo; p++ {
		w := im.tr.StoreAt(hist[p]).Addr.LineIndex()
		if q := c.last[w] - 1; q >= 0 {
			if q < c.done {
				im.pins.Unpin(im.tr.StoreAt(hist[q]))
			}
			hist[q] = trace.NoStore
			if ep.built&(1<<w) != 0 {
				im.pos.view(ep.idx)[w]++
			}
		}
		c.last[w] = p + 1
	}
	c.cur = max(c.cur, lo)
	for p := c.done; p < int32(len(hist)); p++ {
		if r := hist[p]; r != trace.NoStore {
			im.pins.Pin(im.tr.StoreAt(r))
		}
	}
	c.done = int32(len(hist))
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
	if im.pins != nil {
		panic("persist: image snapshot under bounded-window retirement")
	}
	n := 0
	for _, a := range im.all {
		n += int(im.lookup(a).sealed.n)
	}
	snap := &ImageSnapshot{bounds: make([]epochBounds, 0, n), ends: make([]int32, len(im.all))}
	for i, a := range im.all {
		for _, ep := range im.eps.view(im.lookup(a).sealed) {
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
	for i, a := range im.all {
		ls := im.lookup(a)
		if i >= len(snap.ends) {
			im.clean(ls)
			im.lines.Delete(lineKey(a))
			continue
		}
		bs := snap.bounds[start:snap.ends[i]]
		start = snap.ends[i]
		im.dropSealed(ls, len(bs))
		sealed := im.eps.view(ls.sealed)
		for j := range sealed {
			sealed[j].lo, sealed[j].hi = bs[j].lo, bs[j].hi
		}
		ls.live.stores.n = 0
		ls.live.lo, ls.live.hi = 0, 0
		ls.cursor = cursor{}
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
	for _, a := range im.all {
		if ls := im.lookup(a); ls.sealed.n > 0 {
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
		mix(uint64(ls.sealed.n))
		for _, ep := range im.eps.view(ls.sealed) {
			mix(uint64(ep.lo))
			mix(uint64(ep.hi))
			mix(uint64(ep.stores.n))
			for _, r := range im.hist.view(ep.stores) {
				if r == trace.NoStore {
					// Retired entry: fingerprints are only consumed by the
					// state cache, which bounded-window mode forces off,
					// but stay well-defined regardless.
					mix(0)
					continue
				}
				s := im.tr.StoreAt(r)
				mix(uint64(s.ID))
				mix(uint64(s.Value))
			}
		}
	}
	return h
}
