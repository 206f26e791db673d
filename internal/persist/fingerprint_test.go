package persist_test

import (
	"testing"

	"repro/internal/persist"
)

// pinnedStreamFingerprint runs one seeded stream (runStream, 150
// operations) on a fresh machine of the named backend and returns the
// machine's PersistFingerprint after every crash of the stream, folded
// into one value.
func pinnedStreamFingerprint(name string, delayed bool, seed int64) uint64 {
	m := persist.MustNew(persist.Config{Name: name, DelayedCommit: delayed})
	var trail uint64
	runStream([]persist.Model{m}, seed, 150, streamHooks{
		crashed: func() { trail = trail*1099511628211 ^ m.PersistFingerprint() },
	})
	return trail
}

// TestPersistFingerprintPinned pins the crash-image fingerprints of
// twenty seeded streams. The hash keys the post-crash state cache and
// rides in checkpoints, so it must not move when the image's internal
// layout changes. The constants were computed with the map-keyed trace,
// crash image and store buffers (commit bcd721c). ptsosyn is held to
// px86's values: the two backends are observationally equivalent.
func TestPersistFingerprintPinned(t *testing.T) {
	want := []struct {
		seed    int64
		delayed bool
		persist uint64
	}{
		{1, false, 0xb5842e70abc70ed0},
		{2, false, 0x3ebbc4589d2a0cc7},
		{3, false, 0xd5bc340f2a80a3ee},
		{4, false, 0x8a936debd05f9a47},
		{5, false, 0x7c98a7cd487aa6af},
		{6, false, 0x5a399ea3e2baf2d4},
		{7, false, 0x59658b670b78d1c7},
		{8, false, 0xc44a543210bd9209},
		{9, false, 0x3a7ce5609cfe8ab5},
		{10, false, 0xf77b2705a34034c6},
		{11, true, 0x2c7363002b3d46ce},
		{12, true, 0x4e257cbbcb43e078},
		{13, true, 0x4428786adcc54262},
		{14, true, 0xeb3598e1a24db056},
		{15, true, 0x87f53a9e25b382d7},
		{16, true, 0x58942ec98306804f},
		{17, true, 0xcc8c6acc5d4cdb7f},
		{18, true, 0x3707c7d71348a13b},
		{19, true, 0x6bea2f8a73a75b58},
		{20, true, 0xa72850b3d7a77e73},
	}
	for _, w := range want {
		for _, name := range []string{"px86", "ptsosyn"} {
			if p := pinnedStreamFingerprint(name, w.delayed, w.seed); p != w.persist {
				t.Errorf("%s seed %d (delayed %v): fingerprint %#x, want %#x",
					name, w.seed, w.delayed, p, w.persist)
			}
		}
	}
}
