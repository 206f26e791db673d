// Package part ports P-ART, the persistent Adaptive Radix Tree from the
// RECIPE collection (Lee et al., SOSP '19). The port reproduces the
// persistence skeleton of the original: optimistic version locks stored
// in PM (typeVersionLockObsolete), N4 nodes that grow into N16 nodes,
// and the epoch-based memory reclamation machinery (Epoche /
// DeletionList) whose missing flushes account for P-ART's
// memory-management violations in §6.2.
//
// Seeded bugs, rows #14–#23 of Table 2:
//
//	#14 typeVersionLockObsolete  locking it in N::writeLockOrRestart
//	#15 typeVersionLockObsolete  locking it in N::lockVersionOrRestart
//	#16 typeVersionLockObsolete  unlocking it in N::writeUnlock
//	#17 nodesCount               updating it in DeletionList::add
//	#18 N16::keys                updating it in N16::insert
//	#19 N16::count               updating it in N16::insert
//	#20 N4::keys                 updating it in N4::insert
//	#21 N4::children             updating it in N4::insert
//	#22 deletionLists            writing to deletionLists in Epoche constructor
//	#23 Tree::root               writing to root in Tree constructor
//
// plus nine memory-management violations in the Epoche/DeletionList and
// node-allocator code, reported separately in §6.2 because fixing them
// requires redesigning the (intentionally unfinished) RECIPE memory
// management rather than adding flushes.
package part

import (
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/pmem"
)

const (
	n4Cap  = 4
	n16Cap = 16

	// Node layout: metadata line, then keys, then children.
	nodeVersionOff = 0
	nodeCountOff   = 8
	nodeTypeOff    = 16
	nodeKeysOff    = memmodel.CacheLineSize

	typeN4  = 4
	typeN16 = 16

	// Epoche object layout (one line).
	epDeletionListsOff = 0
	epCurrentOff       = 8
	epOldestOff        = 16

	// DeletionList layout (one line header + node slots).
	dlHeadOff    = 0
	dlCountOff   = 8 // nodesCount — Table 2 row #17
	dlAddedOff   = 16
	dlDeletedOff = 24
	dlThreshOff  = 32
	dlNodesOff   = memmodel.CacheLineSize

	// Allocator bookkeeping (one line).
	allocFreeListOff = 0
	allocEpochOff    = 8

	// Root object: Tree::root at RootAddr; the Epoche pointer and driver
	// marker live on separate lines so persisting one never masks the
	// others.
	treeRootAddr  = pmem.RootAddr
	epochePtrAddr = pmem.RootAddr + 1*memmodel.CacheLineSize
	markerAddr    = pmem.RootAddr + 2*memmodel.CacheLineSize
)

// art is the runtime handle of one simulated P-ART.
type art struct {
	v bench.Variant
	// volatile mirrors of allocation addresses (re-read from PM in
	// recovery; kept here only for the pre-crash phase's convenience).
	epoche memmodel.Addr
	dl     memmodel.Addr
	alloc  memmodel.Addr
}

func (a *art) persistIfFixed(th *pmem.Thread, addr memmodel.Addr, size int, loc string) {
	if a.v == bench.Fixed {
		th.Persist(addr, size, loc)
	}
}

func keySlot(node memmodel.Addr, i int) memmodel.Addr {
	return node + nodeKeysOff + memmodel.Addr(i*memmodel.WordSize)
}

func childSlot(node memmodel.Addr, cap int, i int) memmodel.Addr {
	return node + nodeKeysOff + memmodel.Addr((cap+i)*memmodel.WordSize)
}

// writeLockOrRestart acquires a node's PM-resident version lock — the
// lock word is never flushed (bug #14).
func (a *art) writeLockOrRestart(th *pmem.Thread, node memmodel.Addr) {
	for {
		if _, ok := th.CAS(node+nodeVersionOff, 0, 1, "typeVersionLockObsolete in N::writeLockOrRestart"); ok {
			break
		}
	}
	a.persistIfFixed(th, node+nodeVersionOff, memmodel.WordSize, "persist version lock")
}

// lockVersionOrRestart is the version-validated lock used on the grow
// path (bug #15).
func (a *art) lockVersionOrRestart(th *pmem.Thread, node memmodel.Addr) {
	for {
		v := th.Load(node+nodeVersionOff, "read version in N::lockVersionOrRestart")
		if v != 0 {
			continue
		}
		if _, ok := th.CAS(node+nodeVersionOff, 0, 1, "typeVersionLockObsolete in N::lockVersionOrRestart"); ok {
			break
		}
	}
	a.persistIfFixed(th, node+nodeVersionOff, memmodel.WordSize, "persist version lock")
}

// writeUnlock releases the version lock (bug #16).
func (a *art) writeUnlock(th *pmem.Thread, node memmodel.Addr) {
	th.Store(node+nodeVersionOff, 0, "typeVersionLockObsolete in N::writeUnlock")
	a.persistIfFixed(th, node+nodeVersionOff, memmodel.WordSize, "persist version unlock")
}

// allocNode carves a node out of the PM allocator, updating the
// allocator's PM-resident free-list head without a flush (one of the
// §6.2 memory-management violations).
func (a *art) allocNode(th *pmem.Thread, cap int) memmodel.Addr {
	w := th.World()
	lines := 1 + (2*cap*memmodel.WordSize+memmodel.CacheLineSize-1)/memmodel.CacheLineSize
	node := w.Heap.AllocLines(lines)
	th.Store(a.alloc+allocFreeListOff, memmodel.Value(node)+memmodel.Value(lines*memmodel.CacheLineSize), "Allocator::freeList in allocNode") // memmgmt
	a.persistIfFixed(th, a.alloc+allocFreeListOff, memmodel.WordSize, "persist Allocator::freeList")
	return node
}

// newEpoche is the Epoche constructor: it publishes the deletion-list
// array without flushes (bug #22) and initializes the epoch counters
// (memory-management violations).
func (a *art) newEpoche(th *pmem.Thread) {
	w := th.World()
	a.epoche = w.Heap.AllocLines(1)
	a.dl = w.Heap.AllocLines(2)
	th.Store(a.epoche+epDeletionListsOff, memmodel.Value(a.dl), "deletionLists in Epoche constructor") // bug #22
	a.persistIfFixed(th, a.epoche+epDeletionListsOff, memmodel.WordSize, "persist deletionLists")
	th.Store(a.epoche+epCurrentOff, 1, "Epoche::currentEpoche in Epoche constructor") // memmgmt
	a.persistIfFixed(th, a.epoche+epCurrentOff, memmodel.WordSize, "persist currentEpoche")
	th.Store(a.epoche+epOldestOff, 1, "Epoche::oldestEpoche in Epoche constructor") // memmgmt
	a.persistIfFixed(th, a.epoche+epOldestOff, memmodel.WordSize, "persist oldestEpoche")
	th.Store(epochePtrAddr, memmodel.Value(a.epoche), "Tree::epoche pointer in Tree constructor")
	th.Persist(epochePtrAddr, memmodel.WordSize, "persist Tree::epoche pointer")
}

// deletionListAdd is DeletionList::add: it links a retired node into the
// list and updates the PM-resident counters, none of which are flushed
// (bug #17 plus several memory-management violations).
func (a *art) deletionListAdd(th *pmem.Thread, node memmodel.Addr) {
	count := th.Load(a.dl+dlCountOff, "read nodesCount in DeletionList::add")
	slot := a.dl + dlNodesOff + memmodel.Addr(int(count)%4*memmodel.WordSize)
	th.Store(slot, memmodel.Value(node), "LabelDelete::nodes[i] in DeletionList::add") // memmgmt
	a.persistIfFixed(th, slot, memmodel.WordSize, "persist LabelDelete::nodes[i]")
	th.Store(a.dl+dlHeadOff, memmodel.Value(slot), "headDeletionList in DeletionList::add") // memmgmt
	a.persistIfFixed(th, a.dl+dlHeadOff, memmodel.WordSize, "persist headDeletionList")
	th.Store(a.dl+dlCountOff, count+1, "nodesCount in DeletionList::add") // bug #17
	a.persistIfFixed(th, a.dl+dlCountOff, memmodel.WordSize, "persist nodesCount")
	added := th.Load(a.dl+dlAddedOff, "read added in DeletionList::add")
	th.Store(a.dl+dlAddedOff, added+1, "DeletionList::added in DeletionList::add") // memmgmt
	a.persistIfFixed(th, a.dl+dlAddedOff, memmodel.WordSize, "persist added")
	th.Store(a.dl+dlThreshOff, (count+1)/2, "DeletionList::thresholdCounter in DeletionList::add") // memmgmt
	a.persistIfFixed(th, a.dl+dlThreshOff, memmodel.WordSize, "persist thresholdCounter")
}

// collectGarbage is the epoch-advance + reclamation step; its epoch and
// counter stores are missing flushes (memory-management violations).
func (a *art) collectGarbage(th *pmem.Thread) {
	cur := th.Load(a.epoche+epCurrentOff, "read currentEpoche in collectGarbage")
	th.Store(a.epoche+epCurrentOff, cur+1, "Epoche::currentEpoche in enterEpoche") // memmgmt
	a.persistIfFixed(th, a.epoche+epCurrentOff, memmodel.WordSize, "persist currentEpoche advance")
	th.Store(a.epoche+epOldestOff, cur, "Epoche::oldestEpoche in collectGarbage") // memmgmt
	a.persistIfFixed(th, a.epoche+epOldestOff, memmodel.WordSize, "persist oldestEpoche advance")
	deleted := th.Load(a.dl+dlDeletedOff, "read deleted in collectGarbage")
	th.Store(a.dl+dlDeletedOff, deleted+1, "DeletionList::deleted in collectGarbage") // memmgmt
	a.persistIfFixed(th, a.dl+dlDeletedOff, memmodel.WordSize, "persist deleted")
}

// create is the Tree constructor (bug #23) plus the Epoche constructor
// and the allocator bootstrap.
func (a *art) create(th *pmem.Thread) memmodel.Addr {
	w := th.World()
	a.alloc = w.Heap.AllocLines(1)
	th.Store(a.alloc+allocEpochOff, 1, "Allocator::epoch in bootstrap")
	th.Persist(a.alloc+allocEpochOff, memmodel.WordSize, "persist Allocator::epoch")
	a.newEpoche(th)
	root := a.allocNode(th, n4Cap)
	th.Store(root+nodeTypeOff, typeN4, "N::type in N4 constructor")
	th.Persist(root+nodeTypeOff, memmodel.WordSize, "persist N::type")
	th.Store(treeRootAddr, memmodel.Value(root), "Tree::root in Tree constructor") // bug #23
	a.persistIfFixed(th, treeRootAddr, memmodel.WordSize, "persist Tree::root")
	return root
}

// n4Insert adds (key, leaf) into an N4 node under its write lock —
// bugs #14, #16, #20, #21.
func (a *art) n4Insert(th *pmem.Thread, node memmodel.Addr, key, leaf memmodel.Value) bool {
	a.writeLockOrRestart(th, node)
	count := int(th.Load(node+nodeCountOff, "read N4::count in N4::insert"))
	if count >= n4Cap {
		a.writeUnlock(th, node)
		return false
	}
	th.Store(childSlot(node, n4Cap, count), leaf, "N4::children in N4::insert") // bug #21
	a.persistIfFixed(th, childSlot(node, n4Cap, count), memmodel.WordSize, "persist N4::children")
	th.Store(keySlot(node, count), key, "N4::keys in N4::insert") // bug #20
	a.persistIfFixed(th, keySlot(node, count), memmodel.WordSize, "persist N4::keys")
	th.Store(node+nodeCountOff, memmodel.Value(count+1), "N4::count in N4::insert")
	th.Persist(node+nodeCountOff, memmodel.WordSize, "persist N4::count")
	a.writeUnlock(th, node)
	return true
}

// growToN16 copies a full N4 into a fresh N16 — bugs #15, #18, #19 —
// and republishes it into the slot that referenced the old node
// (properly persisted: the republish itself is not one of the reported
// bugs).
func (a *art) growToN16(th *pmem.Thread, n4, slot memmodel.Addr) memmodel.Addr {
	a.lockVersionOrRestart(th, n4)
	n16 := a.allocNode(th, n16Cap)
	th.Store(n16+nodeTypeOff, typeN16, "N::type in N16 constructor")
	th.Persist(n16+nodeTypeOff, memmodel.WordSize, "persist N::type")
	count := int(th.Load(n4+nodeCountOff, "read N4::count in grow"))
	for i := 0; i < count; i++ {
		k := th.Load(keySlot(n4, i), "read N4::keys in grow")
		c := th.Load(childSlot(n4, n4Cap, i), "read N4::children in grow")
		th.Store(childSlot(n16, n16Cap, i), c, "N16::children in N16::insert")
		th.Persist(childSlot(n16, n16Cap, i), memmodel.WordSize, "persist N16::children")
		th.Store(keySlot(n16, i), k, "N16::keys in N16::insert") // bug #18
		a.persistIfFixed(th, keySlot(n16, i), memmodel.WordSize, "persist N16::keys")
	}
	th.Store(n16+nodeCountOff, memmodel.Value(count), "N16::count in N16::insert") // bug #19
	a.persistIfFixed(th, n16+nodeCountOff, memmodel.WordSize, "persist N16::count")
	th.Store(slot, memmodel.Value(n16), "N republish in grow")
	th.Persist(slot, memmodel.WordSize, "persist N republish")
	// The N4 is retired through the epoch machinery.
	a.writeUnlock(th, n4)
	a.deletionListAdd(th, n4)
	return n16
}

// n16Insert adds into an N16 node — reuses bugs #15, #16, #18, #19.
func (a *art) n16Insert(th *pmem.Thread, node memmodel.Addr, key, leaf memmodel.Value) bool {
	a.lockVersionOrRestart(th, node)
	count := int(th.Load(node+nodeCountOff, "read N16::count in N16::insert"))
	if count >= n16Cap {
		a.writeUnlock(th, node)
		return false
	}
	th.Store(childSlot(node, n16Cap, count), leaf, "N16::children in N16::insert")
	th.Persist(childSlot(node, n16Cap, count), memmodel.WordSize, "persist N16::children")
	th.Store(keySlot(node, count), key, "N16::keys in N16::insert") // bug #18
	a.persistIfFixed(th, keySlot(node, count), memmodel.WordSize, "persist N16::keys")
	th.Store(node+nodeCountOff, memmodel.Value(count+1), "N16::count in N16::insert") // bug #19
	a.persistIfFixed(th, node+nodeCountOff, memmodel.WordSize, "persist N16::count")
	a.writeUnlock(th, node)
	return true
}

// nodeInsert routes to the node-type-specific insert, growing the node
// (through the slot that references it) when full.
func (a *art) nodeInsert(th *pmem.Thread, slot memmodel.Addr, partial, child memmodel.Value) {
	node := memmodel.Addr(th.Load(slot, "read node in insert"))
	typ := th.Load(node+nodeTypeOff, "read N::type in insert")
	if typ == typeN4 {
		if a.n4Insert(th, node, partial, child) {
			return
		}
		node = a.growToN16(th, node, slot)
	}
	a.n16Insert(th, node, partial, child)
}

// findChild scans a node for a partial key, returning the child value
// and the child slot's address (for grow republish); ok is false when
// the partial key is absent or the node is malformed.
func (a *art) findChild(th *pmem.Thread, node memmodel.Addr, partial memmodel.Value) (memmodel.Value, memmodel.Addr, bool) {
	typ := th.Load(node+nodeTypeOff, "read N::type in findChild")
	cap := n4Cap
	if typ == typeN16 {
		cap = n16Cap
	} else if typ != typeN4 {
		return 0, 0, false
	}
	count := int(th.Load(node+nodeCountOff, "read N::count in findChild"))
	if count > cap {
		count = cap
	}
	for i := 0; i < count; i++ {
		if th.Load(keySlot(node, i), "read keys in findChild") == partial {
			slot := childSlot(node, cap, i)
			return th.Load(slot, "read children in findChild"), slot, true
		}
	}
	return 0, 0, false
}

// Keys are two radix levels: the high nibble indexes the root node, the
// low nibble the second-level node. Leaves are tagged with the low bit
// (ART's pointer-tagging), so child slots hold either a node address
// (even) or a leaf (odd).
func hiNibble(key memmodel.Value) memmodel.Value { return (key >> 4) & 0xf }
func loNibble(key memmodel.Value) memmodel.Value { return key & 0xf }

func tagLeaf(v memmodel.Value) memmodel.Value   { return v<<1 | 1 }
func untagLeaf(v memmodel.Value) memmodel.Value { return v >> 1 }
func isLeaf(v memmodel.Value) bool              { return v&1 == 1 }

// insert descends the radix levels, creating the intermediate node on
// first use, and places the tagged leaf at the second level.
func (a *art) insert(th *pmem.Thread, key, leaf memmodel.Value) {
	root := memmodel.Addr(th.Load(treeRootAddr, "read Tree::root in insert"))
	if root == 0 {
		return
	}
	child, _, ok := a.findChild(th, root, hiNibble(key))
	if !ok || child == 0 {
		// First key with this prefix: allocate the second-level node
		// and link it into the root (an N4/N16 insert, bugs #20/#21).
		n := a.allocNode(th, n4Cap)
		th.Store(n+nodeTypeOff, typeN4, "N::type in N4 constructor")
		th.Persist(n+nodeTypeOff, memmodel.WordSize, "persist N::type")
		a.nodeInsert(th, treeRootAddr, hiNibble(key), memmodel.Value(n))
		child, _, ok = a.findChild(th, root, hiNibble(key))
		if !ok {
			return
		}
	}
	if isLeaf(child) {
		return // duplicate prefix collision; the port does not update in place
	}
	// Insert the leaf into the second-level node, addressed through its
	// slot in the root so a grow republishes correctly.
	a.nodeInsertAt(th, root, hiNibble(key), loNibble(key), tagLeaf(leaf))
}

// nodeInsertAt re-locates the child slot (it may have moved if the
// parent itself grew) and inserts into the second-level node.
func (a *art) nodeInsertAt(th *pmem.Thread, parent memmodel.Addr, partial, sub, child memmodel.Value) {
	_, slot, ok := a.findChild(th, parent, partial)
	if !ok || slot == 0 {
		return
	}
	a.nodeInsert(th, slot, sub, child)
}

// lookup descends both radix levels.
func (a *art) lookup(th *pmem.Thread, key memmodel.Value) (memmodel.Value, bool) {
	root := memmodel.Addr(th.Load(treeRootAddr, "read Tree::root in lookup"))
	if root == 0 {
		return 0, false
	}
	child, _, ok := a.findChild(th, root, hiNibble(key))
	if !ok || child == 0 || isLeaf(child) {
		return 0, false
	}
	leaf, _, ok := a.findChild(th, memmodel.Addr(child), loNibble(key))
	if !ok || leaf == 0 || !isLeaf(leaf) {
		return 0, false
	}
	return untagLeaf(leaf), true
}

// recover walks everything a P-ART restart touches: the root node (in
// first-written order per line), then the epoch machinery state.
func (a *art) recover(th *pmem.Thread) {
	th.Load(markerAddr, "read driver marker in Recovery")
	node := memmodel.Addr(th.Load(treeRootAddr, "read Tree::root in Recovery"))
	if node != 0 {
		a.recoverNode(th, node, 0)
	}
	ep := memmodel.Addr(th.Load(epochePtrAddr, "read Tree::epoche in Recovery"))
	if ep != 0 {
		dl := memmodel.Addr(th.Load(ep+epDeletionListsOff, "read deletionLists in Recovery"))
		th.Load(ep+epCurrentOff, "read currentEpoche in Recovery")
		th.Load(ep+epOldestOff, "read oldestEpoche in Recovery")
		if dl != 0 {
			th.Load(dl+dlHeadOff, "read headDeletionList in Recovery")
			th.Load(dl+dlCountOff, "read nodesCount in Recovery")
			th.Load(dl+dlAddedOff, "read added in Recovery")
			th.Load(dl+dlDeletedOff, "read deleted in Recovery")
			th.Load(dl+dlThreshOff, "read thresholdCounter in Recovery")
			th.Load(dl+dlNodesOff, "read LabelDelete::nodes[0] in Recovery")
		}
	}
	// Allocator bookkeeping is re-read on restart.
	if a.alloc != 0 {
		th.Load(a.alloc+allocFreeListOff, "read Allocator::freeList in Recovery")
		th.Load(a.alloc+allocEpochOff, "read Allocator::epoch in Recovery")
	}
	for k := memmodel.Value(1); k <= 6; k++ {
		a.lookup(th, k)
	}
}

// recoverNode reads one node's persistent words in first-written order
// (child pointer before the key that published it), then descends into
// untagged children up to the radix depth.
func (a *art) recoverNode(th *pmem.Thread, node memmodel.Addr, depth int) {
	th.Load(node+nodeVersionOff, "read typeVersionLockObsolete in Recovery")
	th.Load(node+nodeCountOff, "read N::count in Recovery")
	typ := th.Load(node+nodeTypeOff, "read N::type in Recovery")
	cap := n4Cap
	if typ == typeN16 {
		cap = n16Cap
	} else if typ != typeN4 {
		return
	}
	var children []memmodel.Value
	for i := 0; i < cap; i++ {
		c := th.Load(childSlot(node, cap, i), "read children in Recovery")
		th.Load(keySlot(node, i), "read keys in Recovery")
		children = append(children, c)
	}
	if depth >= 1 {
		return // leaves below this level
	}
	for _, c := range children {
		if c != 0 && !isLeaf(c) {
			a.recoverNode(th, memmodel.Addr(c), depth+1)
		}
	}
}

// workload is the pre-crash phase: constructor, six inserts (forcing
// the N4→N16 grow), a GC pass, driver marker.
func (a *art) workload(w *pmem.World) {
	th := w.Thread(0)
	a.create(th)
	for k := memmodel.Value(1); k <= 6; k++ {
		a.insert(th, k, k*10)
	}
	a.collectGarbage(th)
	th.Store(markerAddr, 6, "driver marker")
	th.Persist(markerAddr, memmodel.WordSize, "persist driver marker")
}

// template runs the workload once, crash-free, on a throwaway world to
// learn the mirror addresses (Epoche, deletion lists, allocator). The
// heap allocator is deterministic, so every execution allocates the
// same addresses; recovery treats the mirrors as statically-known
// restart-time layout even when the crash preempted the assignment.
// The template is read-only once built: the pre-crash phase works on a
// per-call copy, so it is the same in every execution and on every
// worker, and recovery can be re-entered on a restored snapshot.
func template(v bench.Variant) *art {
	a := &art{v: v}
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1})
	w.Checker.SetEnabled(false)
	w.RunPhase(a.workload)
	return a
}

// Build constructs the exploration program for a variant: constructor,
// six inserts (forcing the N4→N16 grow), a GC pass, then recovery.
func Build(v bench.Variant) explore.Program {
	tmpl := template(v)
	return &explore.FuncProgram{
		ProgName: "P-ART-" + v.String(),
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				a := *tmpl
				a.workload(w)
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
		Name: "P-ART",
		Expected: []bench.ExpectedBug{
			{ID: 14, Field: "typeVersionLockObsolete", Cause: "locking it in N::writeLockOrRestart", LocSubstr: "typeVersionLockObsolete in N::writeLockOrRestart"},
			{ID: 15, Field: "typeVersionLockObsolete", Cause: "locking it in N::lockVersionOrRestart", LocSubstr: "typeVersionLockObsolete in N::lockVersionOrRestart"},
			{ID: 16, Field: "typeVersionLockObsolete", Cause: "unlocking it in N::writeUnlock", LocSubstr: "typeVersionLockObsolete in N::writeUnlock"},
			{ID: 17, Field: "nodesCount", Cause: "updating it in DeletionList::add", LocSubstr: "nodesCount in DeletionList::add"},
			{ID: 18, Field: "N16::keys", Cause: "updating it in N16::insert", LocSubstr: "N16::keys in N16::insert"},
			{ID: 19, Field: "N16::count", Cause: "updating it in N16::insert", LocSubstr: "N16::count in N16::insert"},
			{ID: 20, Field: "N4::keys", Cause: "updating it in N4::insert", LocSubstr: "N4::keys in N4::insert", Known: true},
			{ID: 21, Field: "N4::children", Cause: "updating it in N4::insert", LocSubstr: "N4::children in N4::insert", Known: true},
			{ID: 22, Field: "deletionLists", Cause: "writing to deletionLists in Epoche constructor", LocSubstr: "deletionLists in Epoche constructor", Known: true},
			{ID: 23, Field: "Tree::root", Cause: "writing to root in Tree constructor", LocSubstr: "Tree::root in Tree constructor", Known: true},
			// Memory-management violations (§6.2: nine more in P-ART).
			{Field: "headDeletionList", Cause: "DeletionList::add", LocSubstr: "headDeletionList in DeletionList::add", MemMgmt: true},
			{Field: "LabelDelete::nodes[i]", Cause: "DeletionList::add", LocSubstr: "LabelDelete::nodes[i] in DeletionList::add", MemMgmt: true},
			{Field: "DeletionList::added", Cause: "DeletionList::add", LocSubstr: "DeletionList::added in DeletionList::add", MemMgmt: true},
			{Field: "DeletionList::thresholdCounter", Cause: "DeletionList::add", LocSubstr: "thresholdCounter in DeletionList::add", MemMgmt: true},
			{Field: "DeletionList::deleted", Cause: "collectGarbage", LocSubstr: "DeletionList::deleted in collectGarbage", MemMgmt: true},
			{Field: "Epoche::currentEpoche", Cause: "Epoche constructor", LocSubstr: "currentEpoche in Epoche constructor", MemMgmt: true},
			{Field: "Epoche::currentEpoche", Cause: "enterEpoche", LocSubstr: "currentEpoche in enterEpoche", MemMgmt: true},
			{Field: "Epoche::oldestEpoche", Cause: "collectGarbage/constructor", LocSubstr: "oldestEpoche in", MemMgmt: true},
			{Field: "Allocator::freeList", Cause: "allocNode", LocSubstr: "Allocator::freeList in allocNode", MemMgmt: true},
		},
		Build:         Build,
		PreferredMode: explore.Random,
		Executions:    400,
	}
}
