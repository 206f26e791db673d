package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// tableRef is the plain-map model of a Table[int]: live holds the
// present keys, last the value each key's slot last held (a slot keeps
// its value across Reset and Delete).
type tableRef struct {
	live map[uint64]bool
	last map[uint64]int
}

// tableOps drives a Table[int] and its map model through one operation
// stream, failing t at the first disagreement. next yields the stream:
// an opcode and a key per call, ok=false at the end.
func tableOps(t *testing.T, tab *Table[int], next func() (op byte, key uint64, ok bool)) {
	t.Helper()
	ref := tableRef{live: map[uint64]bool{}, last: map[uint64]int{}}
	val := 0
	for step := 0; ; step++ {
		op, key, ok := next()
		if !ok {
			break
		}
		switch op % 6 {
		case 0, 1: // Slot, then write a fresh value
			p, present := tab.Slot(key)
			if present != ref.live[key] || *p != ref.last[key] {
				t.Fatalf("step %d: Slot(%#x) = (%d, %v), want (%d, %v)", step, key, *p, present, ref.last[key], ref.live[key])
			}
			val++
			*p = val
			ref.live[key] = true
			ref.last[key] = val
		case 2: // Get
			v, present := tab.Get(key)
			want := 0
			if ref.live[key] {
				want = ref.last[key]
			}
			if present != ref.live[key] || v != want {
				t.Fatalf("step %d: Get(%#x) = (%d, %v), want (%d, %v)", step, key, v, present, want, ref.live[key])
			}
		case 3: // Delete
			tab.Delete(key)
			delete(ref.live, key)
		case 4: // Reset, rarely, so keys accumulate between resets
			if key%4 == 0 {
				tab.Reset()
				clear(ref.live)
			}
		case 5: // Each
			seen := map[uint64]bool{}
			var prevPage *tablePage[int]
			var prevKey uint64
			tab.Each(func(k uint64, v *int) {
				if seen[k] {
					t.Fatalf("step %d: Each visits %#x twice", step, k)
				}
				seen[k] = true
				if !ref.live[k] || *v != ref.last[k] {
					t.Fatalf("step %d: Each visits %#x = %d, want live=%v value %d", step, k, *v, ref.live[k], ref.last[k])
				}
				// Within a page, keys come in increasing order.
				pg := tab.find(k)
				if pg == prevPage && k <= prevKey {
					t.Fatalf("step %d: Each visits %#x after %#x on one page", step, k, prevKey)
				}
				prevPage, prevKey = pg, k
			})
			if len(seen) != len(ref.live) {
				t.Fatalf("step %d: Each visits %d keys, want %d", step, len(seen), len(ref.live))
			}
		}
	}
}

// randomTableKey draws keys that cluster (simulator addresses, page
// boundaries) as well as keys from the full uint64 range.
func randomTableKey(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0:
		return uint64(rng.Intn(200)) // one page and its neighbours
	case 1:
		return 0x100000>>3 + uint64(rng.Intn(4*tablePageSize)) // heap words
	case 2:
		return math.MaxUint64 - uint64(rng.Intn(130)) // top of the range
	case 3:
		return uint64(rng.Intn(64)) << 58 // far-apart pages
	default:
		return rng.Uint64()
	}
}

// TestTableMatchesMap checks Table against a plain map on random
// Slot/Get/Delete/Reset/Each streams, including one that spreads keys
// over thousands of pages so the directory grows repeatedly.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 0
		tableOps(t, &Table[int]{}, func() (byte, uint64, bool) {
			n++
			return byte(rng.Intn(6)), randomTableKey(rng), n <= 2000
		})
	}
	t.Run("growth", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		var tab Table[int]
		n := 0
		tableOps(t, &tab, func() (byte, uint64, bool) {
			n++
			op := byte(rng.Intn(4))
			if op == 3 {
				op = 5 // no Delete or Reset: let the pages pile up
			}
			if n%500 != 0 {
				op = 0
			}
			return op, rng.Uint64(), n <= 6000
		})
		if len(tab.pages) < 5000 || len(tab.dir) < 2*len(tab.pages) {
			t.Fatalf("%d pages in a %d-bucket directory", len(tab.pages), len(tab.dir))
		}
	})
}

// TestTableGenerationWrap forces the generation counter through its
// wrap: stamps are cleared once, and no slot written before the wrap
// reads as present after it, even one whose stamp equals a post-wrap
// generation.
func TestTableGenerationWrap(t *testing.T) {
	var tab Table[int]
	tab.gen = math.MaxUint32 - 4
	rng := rand.New(rand.NewSource(7))
	n := 0
	tableOps(t, &tab, func() (byte, uint64, bool) {
		n++
		op := byte(rng.Intn(6))
		if op == 4 {
			return 4, 0, true // always Reset: cross the wrap quickly
		}
		return op, uint64(rng.Intn(300)), n <= 400
	})
	if tab.gen > 100 {
		t.Fatalf("generation %d: the counter did not wrap", tab.gen)
	}

	// A slot stamped with generation 1 long before the wrap must not
	// revive when the counter comes back round to 1: skip the ~4e9
	// resets in between by moving the counter directly.
	var w Table[int]
	p, _ := w.Slot(5)
	*p = 1
	w.gen = math.MaxUint32 - 1
	w.Reset() // wrap: stamps cleared, current generation back to 1
	if _, ok := w.Get(5); ok {
		t.Fatal("key 5 revived after the generation wrap")
	}
	if p, ok := w.Slot(5); ok || *p != 1 {
		t.Fatalf("Slot(5) after the wrap = (%d, %v), want the kept value 1, absent", *p, ok)
	}
}

// FuzzTable checks Table against a plain map on fuzzer-chosen operation
// streams. Each operation is an opcode byte and a key-mode byte; the key
// is a small key, a heap word, or eight raw bytes.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 5, 0, 0})
	f.Add([]byte{0, 2, 1, 2, 3, 4, 5, 6, 7, 8, 2, 2, 1, 2, 3, 4, 5, 6, 7, 8, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{0, 1, 63, 0, 1, 64, 3, 1, 63, 5, 0, 0, 4, 0, 4, 2, 1, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		tableOps(t, &Table[int]{}, func() (byte, uint64, bool) {
			if len(data) < 2 {
				return 0, 0, false
			}
			op, mode := data[0], data[1]
			data = data[2:]
			var key uint64
			switch mode % 3 {
			case 0:
				if len(data) > 0 {
					key = uint64(data[0])
					data = data[1:]
				}
			case 1:
				if len(data) > 0 {
					key = 0x100000>>3 + uint64(data[0])
					data = data[1:]
				}
			default:
				var b [8]byte
				data = data[copy(b[:], data):]
				key = binary.LittleEndian.Uint64(b[:])
			}
			if op%6 == 4 {
				key = 0 // Reset whenever the fuzzer asks for one
			}
			return op, key, true
		})
	})
}
