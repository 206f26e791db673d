// Package pbwtree ports P-BwTree, the persistent Bw-Tree from the
// RECIPE collection. The port reproduces the persistence skeleton of
// the original: a mapping table of CAS-published delta chains, the
// chunked allocator (AllocationMeta) the deltas are carved from, the
// per-thread garbage-collection metadata (GCMetaData), and the epoch
// manager.
//
// Seeded bugs, rows #24–#28 of Table 2:
//
//	#24 next           updating it in GrowChunk function
//	#25 gc_metadata_p  writing to gc_metadata_p address in GCMetaData::PrepareThreadLocal
//	#26 gc_metadata_p  writing to content of gc_metadata_p in GCMetaData::PrepareThreadLocal
//	#27 tail           writing to tail in AllocationMeta
//	#28 epoch_manager  writing to epoch_manager in BwTree constructor
//
// plus four memory-management violations in the epoch/GC code (§6.2).
package pbwtree

import (
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/pmem"
)

const (
	// BwTree root object (two lines): the mapping-table and allocator
	// pointers share the first line; the epoch-manager pointer falls on
	// the second line of the (large, in the original) BwTree object, so
	// flushes of its siblings never cover it.
	btMappingOff  = 0
	btAllocOff    = 8
	btEpochMgrOff = memmodel.CacheLineSize

	// AllocationMeta (one line): tail bump pointer, current chunk, next
	// chunk pointer (written by GrowChunk), chunk count.
	amTailOff  = 0
	amChunkOff = 8
	amNextOff  = 16
	amCountOff = 24
	chunkSize  = 2 * memmodel.CacheLineSize

	// EpochManager (one line).
	emCurrentOff = 0
	emHeadOff    = 8

	// GCMetaData: a pointer cell (gc_metadata_p) plus the per-thread
	// metadata block it points at.
	gcPtrOff   = 0
	gcEpochOff = 0 // within the metadata block
	gcCountOff = 8

	// Mapping table: 8 slots.
	mapSlots = 8

	// Delta record layout.
	deltaKeyOff  = 0
	deltaValOff  = 8
	deltaNextOff = 16
	deltaLines   = 1

	markerAddr = pmem.RootAddr + 2*memmodel.CacheLineSize
)

// bwTree is the runtime handle for one simulated P-BwTree.
type bwTree struct {
	v bench.Variant
	// pre-crash pointer mirrors.
	mapping  memmodel.Addr
	alloc    memmodel.Addr
	epochMgr memmodel.Addr
	gcCell   memmodel.Addr
	gcBlock  memmodel.Addr
}

func (t *bwTree) persistIfFixed(th *pmem.Thread, a memmodel.Addr, size int, loc string) {
	if t.v == bench.Fixed {
		th.Persist(a, size, loc)
	}
}

// create is the BwTree constructor: it allocates the mapping table, the
// allocator, and the epoch manager; the epoch-manager publish is missing
// its flush — bug #28.
func (t *bwTree) create(th *pmem.Thread) {
	w := th.World()
	t.mapping = w.Heap.AllocLines(1)
	t.alloc = w.Heap.AllocLines(1)
	t.epochMgr = w.Heap.AllocLines(1)
	t.gcCell = w.Heap.AllocLines(1)

	th.Store(pmem.RootAddr+btMappingOff, memmodel.Value(t.mapping), "mapping_table in BwTree constructor")
	th.Store(pmem.RootAddr+btAllocOff, memmodel.Value(t.alloc), "allocation_meta in BwTree constructor")
	th.Persist(pmem.RootAddr+btMappingOff, 2*memmodel.WordSize, "persist mapping_table and allocation_meta")
	th.Store(pmem.RootAddr+btEpochMgrOff, memmodel.Value(t.epochMgr), "epoch_manager in BwTree constructor") // bug #28
	t.persistIfFixed(th, pmem.RootAddr+btEpochMgrOff, memmodel.WordSize, "persist epoch_manager")

	// AllocationMeta bootstrap: the initial chunk and the tail bump
	// pointer; the tail store is missing its flush — bug #27.
	chunk := w.Heap.AllocLines(int(chunkSize / memmodel.CacheLineSize))
	th.Store(t.alloc+amChunkOff, memmodel.Value(chunk), "chunk in AllocationMeta constructor")
	th.Persist(t.alloc+amChunkOff, memmodel.WordSize, "persist chunk")
	th.Store(t.alloc+amTailOff, memmodel.Value(chunk), "tail in AllocationMeta") // bug #27
	t.persistIfFixed(th, t.alloc+amTailOff, memmodel.WordSize, "persist tail")

	// EpochManager bootstrap: both counters are memory-management
	// violations (§6.2).
	th.Store(t.epochMgr+emCurrentOff, 1, "EpochManager::current_epoch in CreateNewEpoch") // memmgmt
	t.persistIfFixed(th, t.epochMgr+emCurrentOff, memmodel.WordSize, "persist current_epoch")
	th.Store(t.epochMgr+emHeadOff, 1, "EpochManager::head_epoch in ClearEpoch") // memmgmt
	t.persistIfFixed(th, t.epochMgr+emHeadOff, memmodel.WordSize, "persist head_epoch")
}

// prepareThreadLocal is GCMetaData::PrepareThreadLocal: it publishes the
// per-thread GC metadata pointer and initializes its content — bugs #25
// (the pointer cell) and #26 (the pointed-to block), plus two
// memory-management counter violations.
func (t *bwTree) prepareThreadLocal(th *pmem.Thread) {
	w := th.World()
	t.gcBlock = w.Heap.AllocLines(1)
	th.Store(t.gcBlock+gcEpochOff, 1, "content of gc_metadata_p in GCMetaData::PrepareThreadLocal") // bug #26
	t.persistIfFixed(th, t.gcBlock+gcEpochOff, memmodel.WordSize, "persist gc metadata content")
	th.Store(t.gcBlock+gcCountOff, 0, "GCMetaData::last_active_count in PrepareThreadLocal") // memmgmt
	t.persistIfFixed(th, t.gcBlock+gcCountOff, memmodel.WordSize, "persist last_active_count")
	th.Store(t.gcCell+gcPtrOff, memmodel.Value(t.gcBlock), "gc_metadata_p address in GCMetaData::PrepareThreadLocal") // bug #25
	t.persistIfFixed(th, t.gcCell+gcPtrOff, memmodel.WordSize, "persist gc_metadata_p")
	th.Store(t.epochMgr+emCurrentOff, 2, "EpochManager::current_epoch in JoinEpoch") // memmgmt
	t.persistIfFixed(th, t.epochMgr+emCurrentOff, memmodel.WordSize, "persist epoch join")
}

// growChunk extends the allocator with a fresh chunk; the next-pointer
// store is missing its flush — bug #24.
func (t *bwTree) growChunk(th *pmem.Thread) memmodel.Addr {
	w := th.World()
	chunk := w.Heap.AllocLines(int(chunkSize / memmodel.CacheLineSize))
	th.Store(t.alloc+amNextOff, memmodel.Value(chunk), "next in GrowChunk function") // bug #24
	t.persistIfFixed(th, t.alloc+amNextOff, memmodel.WordSize, "persist next")
	count := th.Load(t.alloc+amCountOff, "read chunk_count in GrowChunk")
	th.Store(t.alloc+amCountOff, count+1, "AllocationMeta::chunk_count in GrowChunk") // memmgmt
	t.persistIfFixed(th, t.alloc+amCountOff, memmodel.WordSize, "persist chunk_count")
	return chunk
}

// allocDelta bump-allocates a delta record, growing when the chunk is
// exhausted; the tail update repeats bug #27.
func (t *bwTree) allocDelta(th *pmem.Thread) memmodel.Addr {
	tail := memmodel.Addr(th.Load(t.alloc+amTailOff, "read tail in allocDelta"))
	chunk := memmodel.Addr(th.Load(t.alloc+amChunkOff, "read chunk in allocDelta"))
	if tail+deltaLines*memmodel.CacheLineSize > chunk+chunkSize {
		chunk = t.growChunk(th)
		tail = chunk
	}
	th.Store(t.alloc+amTailOff, memmodel.Value(tail+deltaLines*memmodel.CacheLineSize), "tail in AllocationMeta") // bug #27
	t.persistIfFixed(th, t.alloc+amTailOff, memmodel.WordSize, "persist tail bump")
	return tail
}

// insert appends a delta record to the key's mapping-table chain. The
// delta contents and the CAS publish are persisted correctly (the
// original flushes them); the surrounding allocator metadata is not.
func (t *bwTree) insert(th *pmem.Thread, key, val memmodel.Value) {
	slot := t.mapping + memmodel.Addr(int(key)%mapSlots*memmodel.WordSize)
	delta := t.allocDelta(th)
	head := th.Load(slot, "read mapping slot in insert")
	th.Store(delta+deltaKeyOff, key, "delta key in insert")
	th.Store(delta+deltaValOff, val, "delta value in insert")
	th.Store(delta+deltaNextOff, head, "delta next in insert")
	th.Persist(delta, 3*memmodel.WordSize, "persist delta record")
	for {
		if _, ok := th.CAS(slot, head, memmodel.Value(delta), "mapping slot CAS in insert"); ok {
			break
		}
		head = th.Load(slot, "re-read mapping slot in insert")
		th.Store(delta+deltaNextOff, head, "delta next retry in insert")
		th.Persist(delta+deltaNextOff, memmodel.WordSize, "persist delta next retry")
	}
	th.Persist(slot, memmodel.WordSize, "persist mapping slot")
}

// lookup walks the delta chain for a key.
func (t *bwTree) lookup(th *pmem.Thread, key memmodel.Value) (memmodel.Value, bool) {
	slot := t.mapping + memmodel.Addr(int(key)%mapSlots*memmodel.WordSize)
	for node := memmodel.Addr(th.Load(slot, "read mapping slot in lookup")); node != 0; {
		if th.Load(node+deltaKeyOff, "read delta key in lookup") == key {
			return th.Load(node+deltaValOff, "read delta value in lookup"), true
		}
		node = memmodel.Addr(th.Load(node+deltaNextOff, "read delta next in lookup"))
	}
	return 0, false
}

// recover re-reads the tree's metadata in first-written order, then the
// chains, as the original's restart path does.
func (t *bwTree) recover(th *pmem.Thread) {
	th.Load(markerAddr, "read driver marker in Recovery")
	mapping := memmodel.Addr(th.Load(pmem.RootAddr+btMappingOff, "read mapping_table in Recovery"))
	th.Load(pmem.RootAddr+btEpochMgrOff, "read epoch_manager in Recovery")
	alloc := memmodel.Addr(th.Load(pmem.RootAddr+btAllocOff, "read allocation_meta in Recovery"))
	if alloc != 0 {
		// Read the allocator words in ascending order of their last
		// write (chunk, next, count, tail) so earlier words are still
		// unresolved when later ones are observed.
		th.Load(alloc+amChunkOff, "read chunk in Recovery")
		th.Load(alloc+amNextOff, "read next in Recovery")
		th.Load(alloc+amCountOff, "read chunk_count in Recovery")
		th.Load(alloc+amTailOff, "read tail in Recovery")
	}
	if t.epochMgr != 0 {
		th.Load(t.epochMgr+emCurrentOff, "read current_epoch in Recovery")
		th.Load(t.epochMgr+emHeadOff, "read head_epoch in Recovery")
	}
	if t.gcCell != 0 {
		block := memmodel.Addr(th.Load(t.gcCell+gcPtrOff, "read gc_metadata_p in Recovery"))
		if block != 0 {
			th.Load(block+gcEpochOff, "read gc metadata content in Recovery")
			th.Load(block+gcCountOff, "read last_active_count in Recovery")
		} else if t.gcBlock != 0 {
			// The pointer was lost; the restart code still scans the
			// (statically known in the original: thread-local arena)
			// metadata block.
			th.Load(t.gcBlock+gcEpochOff, "read gc metadata content in Recovery")
		}
	}
	if mapping != 0 {
		for k := memmodel.Value(1); k <= 5; k++ {
			t.lookup(th, k)
		}
	}
}

// workload is the pre-crash phase: constructor, thread-local GC setup,
// five inserts (forcing one GrowChunk), driver marker.
func (t *bwTree) workload(w *pmem.World) {
	th := w.Thread(0)
	t.create(th)
	t.prepareThreadLocal(th)
	for k := memmodel.Value(1); k <= 5; k++ {
		t.insert(th, k, k*10)
	}
	th.Store(markerAddr, 5, "driver marker")
	th.Persist(markerAddr, memmodel.WordSize, "persist driver marker")
}

// template runs the workload once, crash-free, on a throwaway world to
// learn the mirror addresses (mapping table, allocator, epoch manager,
// GC arena). The heap allocator is deterministic, so every execution
// allocates the same addresses; recovery treats the mirrors as the
// statically-known thread-local layout the original C++ restart code
// has, even when the crash preempted the assignment. The template is
// read-only once built: the pre-crash phase works on a per-call copy,
// so it is the same in every execution and on every worker, and
// recovery can be re-entered on a restored snapshot.
func template(v bench.Variant) *bwTree {
	t := &bwTree{v: v}
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1})
	w.Checker.SetEnabled(false)
	w.RunPhase(t.workload)
	return t
}

// Build constructs the exploration program for a variant.
func Build(v bench.Variant) explore.Program {
	tmpl := template(v)
	return &explore.FuncProgram{
		ProgName: "P-BwTree-" + v.String(),
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				t := *tmpl
				t.workload(w)
			},
			func(w *pmem.World) {
				tmpl.recover(w.Thread(0))
			},
		},
	}
}

// Benchmark describes the port for the evaluation harness.
func Benchmark() *bench.Benchmark {
	return &bench.Benchmark{
		Name: "P-BwTree",
		Expected: []bench.ExpectedBug{
			{ID: 24, Field: "next", Cause: "updating it in GrowChunk function", LocSubstr: "next in GrowChunk function"},
			{ID: 25, Field: "gc_metadata_p", Cause: "writing to gc_metadata_p address in GCMetaData::PrepareThreadLocal", LocSubstr: "gc_metadata_p address in GCMetaData::PrepareThreadLocal", Known: true},
			{ID: 26, Field: "gc_metadata_p", Cause: "writing to content of gc_metadata_p in GCMetaData::PrepareThreadLocal", LocSubstr: "content of gc_metadata_p in GCMetaData::PrepareThreadLocal", Known: true},
			{ID: 27, Field: "tail", Cause: "writing to tail in AllocationMeta", LocSubstr: "tail in AllocationMeta", Known: true},
			{ID: 28, Field: "epoch_manager", Cause: "writing to epoch_manager in BwTree constructor", LocSubstr: "epoch_manager in BwTree constructor", Known: true},
			// Memory-management violations (§6.2: four more in P-BwTree).
			{Field: "EpochManager::current_epoch", Cause: "CreateNewEpoch", LocSubstr: "current_epoch in CreateNewEpoch", MemMgmt: true},
			{Field: "EpochManager::current_epoch", Cause: "JoinEpoch", LocSubstr: "current_epoch in JoinEpoch", MemMgmt: true},
			{Field: "EpochManager::head_epoch", Cause: "ClearEpoch", LocSubstr: "head_epoch in ClearEpoch", MemMgmt: true},
			{Field: "AllocationMeta::chunk_count", Cause: "GrowChunk", LocSubstr: "chunk_count in GrowChunk", MemMgmt: true},
		},
		Build:         Build,
		PreferredMode: explore.Random,
		Executions:    400,
	}
}

// consolidationThreshold is the delta-chain length that triggers a
// consolidation, as in the original's adaptive policy.
const consolidationThreshold = 3

// chainLength walks a mapping slot's delta chain.
func (t *bwTree) chainLength(th *pmem.Thread, slot memmodel.Addr) int {
	n := 0
	for node := memmodel.Addr(th.Load(slot, "read mapping slot in chainLength")); node != 0 && n < 64; n++ {
		node = memmodel.Addr(th.Load(node+deltaNextOff, "read delta next in chainLength"))
	}
	return n
}

// consolidate replaces a long delta chain with a freshly-built base
// node: the live (key, value) pairs are folded newest-wins into one
// record block, the block is persisted, the mapping slot is CAS-swapped
// to it, and the old chain is retired through the epoch machinery. The
// consolidation path follows the original's discipline (persisted); the
// allocator metadata it goes through still carries bugs #24/#27.
func (t *bwTree) consolidate(th *pmem.Thread, slot memmodel.Addr) {
	head := memmodel.Addr(th.Load(slot, "read mapping slot in consolidate"))
	if head == 0 {
		return
	}
	// Fold the chain newest-wins.
	type kv struct{ k, v memmodel.Value }
	var pairs []kv
	seen := map[memmodel.Value]bool{}
	for node := head; node != 0; {
		k := th.Load(node+deltaKeyOff, "read delta key in consolidate")
		if !seen[k] {
			seen[k] = true
			pairs = append(pairs, kv{k, th.Load(node+deltaValOff, "read delta value in consolidate")})
		}
		node = memmodel.Addr(th.Load(node+deltaNextOff, "read delta next in consolidate"))
	}
	// Build the consolidated chain bottom-up from fresh deltas (the
	// port's base node is a compact chain with no duplicates).
	var newHead memmodel.Addr
	for i := len(pairs) - 1; i >= 0; i-- {
		d := t.allocDelta(th)
		th.Store(d+deltaKeyOff, pairs[i].k, "base key in consolidate")
		th.Store(d+deltaValOff, pairs[i].v, "base value in consolidate")
		th.Store(d+deltaNextOff, memmodel.Value(newHead), "base next in consolidate")
		th.Persist(d, 3*memmodel.WordSize, "persist base record")
		newHead = d
	}
	if _, ok := th.CAS(slot, memmodel.Value(head), memmodel.Value(newHead), "mapping slot CAS in consolidate"); !ok {
		return // concurrent update won; retry next time
	}
	th.Persist(slot, memmodel.WordSize, "persist consolidated slot")
	// Retire the old chain's epoch.
	cur := th.Load(t.epochMgr+emCurrentOff, "read current_epoch in consolidate")
	th.Store(t.epochMgr+emCurrentOff, cur+1, "EpochManager::current_epoch in CreateNewEpoch") // memmgmt
	t.persistIfFixed(th, t.epochMgr+emCurrentOff, memmodel.WordSize, "persist epoch after consolidate")
}

// InsertConsolidating is insert plus the adaptive consolidation check.
func (t *bwTree) InsertConsolidating(th *pmem.Thread, key, val memmodel.Value) {
	t.insert(th, key, val)
	slot := t.mapping + memmodel.Addr(int(key)%mapSlots*memmodel.WordSize)
	if t.chainLength(th, slot) > consolidationThreshold {
		t.consolidate(th, slot)
	}
}
