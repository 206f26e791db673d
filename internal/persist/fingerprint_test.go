package persist_test

import (
	"testing"

	"repro/internal/persist"
)

// pinnedStreamFingerprints runs one seeded stream (runStream, 150
// operations) on a fresh machine of the named backend and returns the
// machine's PersistFingerprint and its trace's CommittedFingerprint
// after the stream's final crash, each folded with every earlier
// post-crash PersistFingerprint of the stream.
func pinnedStreamFingerprints(name string, delayed bool, seed int64) (persistFP, committedFP uint64) {
	m := persist.MustNew(persist.Config{Name: name, DelayedCommit: delayed})
	var trail uint64
	runStream([]persist.Model{m}, seed, 150, streamHooks{
		crashed: func() { trail = trail*1099511628211 ^ m.PersistFingerprint() },
	})
	return trail, m.Trace().CommittedFingerprint()
}

// TestPersistFingerprintPinned pins the crash-image and committed-trace
// fingerprints of twenty seeded streams. Both hashes key the
// post-crash state cache and DPOR, and ride in checkpoints, so they
// must not move when the image's or the trace's internal layout
// changes. The constants were computed with the map-keyed trace, crash
// image and store buffers (commit bcd721c). ptsosyn is held to px86's
// values: the two backends are observationally equivalent.
func TestPersistFingerprintPinned(t *testing.T) {
	want := []struct {
		seed               int64
		delayed            bool
		persist, committed uint64
	}{
		{1, false, 0xb5842e70abc70ed0, 0x942030516d892d39},
		{2, false, 0x3ebbc4589d2a0cc7, 0xb04b57c99fcd4062},
		{3, false, 0xd5bc340f2a80a3ee, 0x5cc84f07b354563b},
		{4, false, 0x8a936debd05f9a47, 0x7b4f4ffa7d79d585},
		{5, false, 0x7c98a7cd487aa6af, 0x8fa7608b16c203c},
		{6, false, 0x5a399ea3e2baf2d4, 0xbefc34dd6a6a0c3d},
		{7, false, 0x59658b670b78d1c7, 0x5fa6d8584cadd159},
		{8, false, 0xc44a543210bd9209, 0x4011ad7176099588},
		{9, false, 0x3a7ce5609cfe8ab5, 0x8ef255896e6c0fde},
		{10, false, 0xf77b2705a34034c6, 0x8062fd9e5515e102},
		{11, true, 0x2c7363002b3d46ce, 0x5e41a4c52fd6d2fa},
		{12, true, 0x4e257cbbcb43e078, 0x8782b026bebefc4c},
		{13, true, 0x4428786adcc54262, 0x51f70b35fcb0c8a4},
		{14, true, 0xeb3598e1a24db056, 0xeaa0081875df2d0d},
		{15, true, 0x87f53a9e25b382d7, 0x3849f1319db5e63b},
		{16, true, 0x58942ec98306804f, 0xed4c9e57ed0c0cd0},
		{17, true, 0xcc8c6acc5d4cdb7f, 0xb5c8c24fa74ba689},
		{18, true, 0x3707c7d71348a13b, 0x4df45ad9be468523},
		{19, true, 0x6bea2f8a73a75b58, 0x2961fb39fb1ddfdf},
		{20, true, 0xa72850b3d7a77e73, 0xb16caf2fd67ba2ec},
	}
	for _, w := range want {
		for _, name := range []string{"px86", "ptsosyn"} {
			p, c := pinnedStreamFingerprints(name, w.delayed, w.seed)
			if p != w.persist || c != w.committed {
				t.Errorf("%s seed %d (delayed %v): fingerprints %#x/%#x, want %#x/%#x",
					name, w.seed, w.delayed, p, c, w.persist, w.committed)
			}
		}
	}
}
