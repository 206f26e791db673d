package core

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/px86"
)

// fingerprintTrail drives a fixed three-sub-execution, three-thread
// program through a checker built with opt and returns StateFingerprint
// after every step. The program commits lower bounds from a
// happens-before closure, upper bounds in intervening sub-executions,
// flags a violation (so the seen set is non-empty) and leaves a load
// deferred in an open checksum region.
func fingerprintTrail(opt Options) []uint64 {
	m := px86.New(px86.Config{})
	c := NewWithOptions(m.Trace(), opt)
	var fps []uint64
	step := func() { fps = append(fps, c.StateFingerprint()) }
	read := func(th memmodel.ThreadID, addr memmodel.Addr, want memmodel.Value, loc string, flag bool) {
		for _, cand := range m.LoadCandidates(th, addr) {
			if cand.Store.Initial || cand.Store.Value != want {
				continue
			}
			lid := m.Intern(loc)
			if flag {
				c.FlagRead(th, addr, cand.Store, lid)
			} else {
				m.Load(th, addr, cand, lid)
				c.ObserveRead(th, addr, cand.Store, lid)
			}
			step()
			return
		}
		panic("fingerprintTrail: no candidate " + loc)
	}
	step()
	// Sub-execution 0: thread 1 reads both of thread 0's stores to x
	// (happens-before edges) before each of its stores to y.
	m.Store(0, addrX, 1, m.Intern("e0:x=1"))
	read(1, addrX, 1, "e0:r=x", false)
	m.Store(1, addrY, 1, m.Intern("e0:y=1"))
	m.Store(0, addrX, 2, m.Intern("e0:x=2"))
	read(1, addrX, 2, "e0:r=x'", false)
	m.Store(1, addrY, 2, m.Intern("e0:y=2"))
	m.Store(2, addrZ, 1, m.Intern("e0:z=1"))
	m.Crash()
	// Sub-execution 1 overwrites y and z.
	read(0, addrZ, 1, "e1:r=z", false)
	m.Store(2, addrZ, 2, m.Intern("e1:z=2"))
	m.Store(0, addrY, 3, m.Intern("e1:y=3"))
	m.Crash()
	// Sub-execution 2: the stale x=1 bounds thread 0 of e0 above, so
	// the y=2 read thread 1 is steered around is a read-too-new.
	read(0, addrX, 1, "e2:r=x", false)
	read(1, addrY, 2, "e2:r=y", true)
	read(1, addrY, 3, "e2:r=y'", false)
	read(0, addrZ, 2, "e2:r=z", false)
	c.BeginChecksumRegion(2)
	step()
	read(2, addrX, 1, "e2:csum r=x", false)
	return fps
}

// TestStateFingerprintPinned pins StateFingerprint on fixed multi-crash
// states. DPOR registrations ride in checkpoints, so the hash must not
// move when the checker's internal layout changes: the constants were
// computed with the map-keyed constraint store (commit b0783b0), which
// sorted its (sub-execution, thread) keys before hashing.
func TestStateFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		want []uint64
	}{
		{"full", Options{}, []uint64{
			0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xe1da8f42e49ba5cf, 0x32c4bdad1373ae8c, 0x35ec21bbcdc1b747, 0x64910cf955538212, 0xe97070f5cd97f83e, 0x776aa2dba3df80eb, 0xc132d676b44aec16}},
		{"global-interval", Options{GlobalInterval: true}, []uint64{
			0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xcc51118a40c5107, 0xd1f8445ac3148453, 0xd1f8445ac3148453, 0x2cb51aa194310aa7, 0x2cb51aa194310aa7, 0x96728daa48b89166, 0x585dc8100435f9d}},
		{"no-hb-closure", Options{NoHBClosure: true}, []uint64{
			0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xd94d12186c0f2fb7, 0xe1da8f42e49ba5cf, 0x32c4bdad1373ae8c, 0x32c4bdad1373ae8c, 0x849b27242548a93, 0x39de694723637137, 0x38a5728cb5dcae76, 0xffeef18a9ea391ad}},
	} {
		got := fingerprintTrail(tc.opt)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d steps, want %d: got %#v", tc.name, len(got), len(tc.want), got)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s step %d: fingerprint %#x, want %#x", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
