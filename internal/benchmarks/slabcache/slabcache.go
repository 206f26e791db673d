// Package slabcache ports the persistence skeleton of a memcached-style
// slab cache: items are carved from size-classed slabs, recycled
// through per-class freelists (volatile allocator metadata, as in
// memcached), and published into a direct-indexed hash table. Like
// internal/benchmarks/redislog it is built to be driven by
// internal/workload — every request is O(1) and every store persists as
// it goes, so one execution can stream millions of operations through a
// bounded trace window. Slab recycling makes it the harsher retirement
// test of the two server ports: item memory is continually overwritten
// at the same addresses, so the per-word candidate lists see deep,
// churning histories.
//
// The seeded bug is the do_item_link ordering class from the paper's
// memcached rows: the buggy variant publishes the table pointer before
// the item header is flushed, so a crash can expose a reachable item
// whose header still carries the previous occupant's identity.
package slabcache

import (
	"fmt"

	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/pmem"
	"repro/internal/workload"
)

// Server root line: table base, driver marker.
const (
	scTableAddr  = pmem.RootAddr
	scMarkerAddr = pmem.RootAddr + memmodel.WordSize
)

// Item layout: header words on the first line, data words behind them.
const (
	itKeyOff    = 0
	itFlagsOff  = 8
	itNWordsOff = 16
	itDataOff   = 24
)

// classLines returns the cache lines a class-c item occupies; class c
// holds up to classWords(c) data words.
func classLines(c int) int { return c + 1 }

func classWords(c int) int {
	return (classLines(c)*memmodel.CacheLineSize - itDataOff) / memmodel.WordSize
}

// classFor picks the smallest slab class that fits nwords data words.
func classFor(nwords int) int {
	c := 0
	for classWords(c) < nwords {
		c++
	}
	return c
}

// Cache is the slab-cache server instance. The freelists are volatile
// Go state — memcached keeps its slabs metadata in DRAM too — so a
// crash forgets them; the persistent truth is the table and the items
// it reaches.
type Cache struct {
	v    bench.Variant
	free [][]memmodel.Addr
}

// New builds a server instance for a variant.
func New(v bench.Variant) *Cache { return &Cache{v: v} }

// Init creates the persistent root: the direct-indexed item table for
// keys 1..keys. It also resets the volatile freelists, which a fresh
// phase (post-crash) must not inherit.
func (c *Cache) Init(th *pmem.Thread, keys int) {
	c.free = nil
	w := th.World()
	table := w.Heap.AllocLines((keys*memmodel.WordSize + memmodel.CacheLineSize - 1) / memmodel.CacheLineSize)
	th.Store(scTableAddr, memmodel.Value(table), "item table base in slabs_init")
	th.Persist(scTableAddr, 2*memmodel.WordSize, "persist server root in slabs_init")
}

func (c *Cache) table(th *pmem.Thread) memmodel.Addr {
	return memmodel.Addr(th.Load(scTableAddr, "read item table base"))
}

func (c *Cache) slot(table memmodel.Addr, key memmodel.Value) memmodel.Addr {
	return table + memmodel.Addr(key-1)*memmodel.WordSize
}

// alloc pops a recycled class-cl item or carves a fresh one.
func (c *Cache) alloc(th *pmem.Thread, cl int) memmodel.Addr {
	for len(c.free) <= cl {
		c.free = append(c.free, nil)
	}
	if fl := c.free[cl]; len(fl) > 0 {
		it := fl[len(fl)-1]
		c.free[cl] = fl[:len(fl)-1]
		return it
	}
	return th.World().Heap.AllocLines(classLines(cl))
}

// Set fills an item and links it (do_item_link): write the header and
// data, persist, publish into the table, persist the slot, and recycle
// the previous occupant. The buggy variant publishes before the item is
// flushed.
func (c *Cache) Set(th *pmem.Thread, key, val memmodel.Value, words int) {
	if words <= 0 {
		words = 1
	}
	cl := classFor(words)
	it := c.alloc(th, cl)
	th.Store(it+itKeyOff, key, "item::key in do_item_link") // seeded bug (buggy: published unflushed)
	th.Store(it+itFlagsOff, memmodel.Value(cl+1), "item::flags in do_item_link")
	th.Store(it+itNWordsOff, memmodel.Value(words), "item::nwords in do_item_link")
	for j := 0; j < words; j++ {
		th.Store(it+itDataOff+memmodel.Addr(j)*memmodel.WordSize, val+memmodel.Value(j), "item::data in do_item_link")
	}
	if c.v == bench.Fixed {
		// Item complete and durable before it becomes reachable.
		th.Persist(it, classLines(cl)*memmodel.CacheLineSize, "persist item before publish")
	}
	slot := c.slot(c.table(th), key)
	old := th.Load(slot, "read old item in do_item_link")
	th.Store(slot, memmodel.Value(it), "table slot publish in do_item_link")
	th.Persist(slot, memmodel.WordSize, "persist table slot")
	if old != 0 {
		// do_item_unlink: the displaced item returns to its class
		// freelist; its memory will be rewritten by a later Set.
		ocl := int(th.Load(memmodel.Addr(old)+itFlagsOff, "read old item flags in do_item_unlink")) - 1
		if ocl >= 0 {
			for len(c.free) <= ocl {
				c.free = append(c.free, nil)
			}
			c.free[ocl] = append(c.free[ocl], memmodel.Addr(old))
		}
	}
}

// Get reads the current item for key through the table.
func (c *Cache) Get(th *pmem.Thread, key memmodel.Value) (memmodel.Value, bool) {
	it := memmodel.Addr(th.Load(c.slot(c.table(th), key), "read table slot in get"))
	if it == 0 {
		return 0, false
	}
	if th.Load(it+itKeyOff, "read item key in get") != key {
		return 0, false
	}
	return th.Load(it+itDataOff, "read item data in get"), true
}

// Restart is the warm-restart scan: every reachable item must carry the
// key its slot indexes — a mismatch is the recycled-item identity the
// seeded bug exposes after a crash.
func (c *Cache) Restart(th *pmem.Thread, keys int) {
	th.Load(scMarkerAddr, "read driver marker in Restart")
	table := c.table(th)
	if table == 0 {
		return
	}
	for k := memmodel.Value(1); int(k) <= keys; k++ {
		it := memmodel.Addr(th.Load(c.slot(table, k), "read table slot in Restart"))
		if it == 0 {
			continue
		}
		key := th.Load(it+itKeyOff, "read item key in Restart")
		flags := th.Load(it+itFlagsOff, "read item flags in Restart")
		if key != k {
			th.World().RecordAssertFailure(fmt.Sprintf("slabcache: slot %d reaches item %#x keyed %d", uint64(k), uint64(it), uint64(key)))
			continue
		}
		if flags == 0 {
			th.World().RecordAssertFailure(fmt.Sprintf("slabcache: reachable item %#x with zero flags", uint64(it)))
		}
	}
}

// BuildWorkload constructs the exploration program: initialize the
// cache, drive the configured request stream, crash, warm-restart. Each
// phase builds its own Cache: concurrent executions share the phase
// closures, so the volatile freelists must never outlive one phase of
// one world (a crash forgets them anyway).
func BuildWorkload(v bench.Variant, wcfg workload.Config) explore.Program {
	cfg := wcfg
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	return &explore.FuncProgram{
		ProgName: "SlabCache-" + v.String(),
		PhaseFns: []func(*pmem.World){
			func(w *pmem.World) {
				c := New(v)
				c.Init(w.Thread(0), cfg.Keys)
				workload.Drive(w, cfg, c)
				th := w.Thread(0)
				th.Store(scMarkerAddr, 1, "driver marker")
				th.Persist(scMarkerAddr, memmodel.WordSize, "persist driver marker")
			},
			func(w *pmem.World) {
				New(v).Restart(w.Thread(0), cfg.Keys)
			},
		},
	}
}

// DefaultConfig is the small registry-sized workload; psan-bench
// overrides it for the long-trace runs.
func DefaultConfig() workload.Config {
	return workload.Config{
		Ops:     64,
		Keys:    16,
		ZipfS:   1.2,
		ReadPct: 30,
		Threads: 2,
		Classes: []workload.SizeClass{{Words: 1, Weight: 3}, {Words: 8, Weight: 1}, {Words: 24, Weight: 1}},
	}
}

// Benchmark describes the port for the harness.
func Benchmark() *bench.Benchmark {
	return &bench.Benchmark{
		Name: "SlabCache",
		Expected: []bench.ExpectedBug{
			{Field: "item::key", Cause: "publishing the table pointer in do_item_link before the item is flushed", LocSubstr: "item::key in do_item_link"},
		},
		Build:         func(v bench.Variant) explore.Program { return BuildWorkload(v, DefaultConfig()) },
		PreferredMode: explore.Random,
		Executions:    400,
	}
}
