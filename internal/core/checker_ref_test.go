package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/intervals"
	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/trace"
)

// refChecker is the map-keyed constraint store the checker used before
// its dense rows, kept as the reference the dense checker must match
// call for call: crash intervals live in a map keyed by (sub-execution,
// thread), applyUpdates stages speculative intervals in a second map it
// clears per load, the seen set is a map keyed by violation identity,
// and the known-key lookup formats the key string and asks the
// predicate every time, caching nothing. It keeps no applied-read
// stamps: every read runs its full update list. FlagRead's answer comes
// from WouldViolate, a separate speculative pass that stops at the
// first emptied interval. The stateless parts of the algorithm — the
// update list, diagnose, fix synthesis and provenance — are the
// checker's own, through aux, which holds no constraint state and, never
// observing a read, stamps no store.
type refChecker struct {
	aux        *Checker
	cons       map[consKey]intervals.Interval
	violations []*Violation
	seen       map[violationKey]bool
	known      func(key string) bool
	deferred   map[memmodel.ThreadID][]deferredLoad
	apply      map[consKey]intervals.Interval
}

type refSnapshot struct {
	cons       map[consKey]intervals.Interval
	seen       map[violationKey]bool
	deferred   map[memmodel.ThreadID][]deferredLoad
	violations []*Violation
}

func newRefChecker(tr *trace.Trace, opt Options) *refChecker {
	return &refChecker{
		aux:      NewWithOptions(tr, opt),
		cons:     make(map[consKey]intervals.Interval),
		seen:     make(map[violationKey]bool),
		deferred: make(map[memmodel.ThreadID][]deferredLoad),
		apply:    make(map[consKey]intervals.Interval),
	}
}

func (c *refChecker) Reset() {
	clear(c.cons)
	c.violations = nil
	clear(c.seen)
	clear(c.deferred)
}

func (c *refChecker) Violations() []*Violation         { return c.violations }
func (c *refChecker) SetKnown(known func(string) bool) { c.known = known }
func (c *refChecker) SetProvenance(on bool)            { c.aux.SetProvenance(on) }

func (c *refChecker) Interval(subExec int, t memmodel.ThreadID) intervals.Interval {
	if iv, ok := c.cons[consKey{subExec, t}]; ok {
		return iv
	}
	return intervals.New()
}

func (c *refChecker) applyUpdates(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID, ups []update, mode applyMode) []*Violation {
	if len(ups) == 0 {
		return nil
	}
	tr := c.aux.tr
	var found []*Violation
	var vks []violationKey
	scratch := c.apply
	clear(scratch)
	for _, u := range ups {
		iv, ok := scratch[u.key]
		if !ok {
			if iv, ok = c.cons[u.key]; !ok {
				iv = intervals.New()
			}
		}
		var next intervals.Interval
		if u.lo {
			next, _ = iv.ConstrainLo(u.clock, u.store)
		} else {
			next, _ = iv.ConstrainHi(u.clock, u.store)
		}
		if next.Empty() {
			if mode != modeCheck {
				vk := violationKeyFor(rf, &u, iv)
				if c.seen[vk] {
					continue
				}
				if c.known != nil && c.known(bugKey(vk.kind, tr.LocString(vk.mfLoc), tr.LocString(vk.perLoc))) {
					c.seen[vk] = true
					continue
				}
			}
			vk := violationKeyFor(rf, &u, iv)
			found = append(found, c.aux.diagnose(t, addr, rf, loc, &u, iv, next, c.aux.idOf(vk)))
			vks = append(vks, vk)
			continue
		}
		scratch[u.key] = next
		if mode == modeObserve {
			c.cons[u.key] = next
		}
	}
	if mode != modeCheck {
		for i, v := range found {
			if !c.seen[vks[i]] {
				c.seen[vks[i]] = true
				v.Fixes = c.aux.computeFixes(v)
				if c.aux.prov {
					v.Prov = c.aux.computeProvenance(v)
				}
				c.violations = append(c.violations, v)
			}
		}
	}
	return found
}

func (c *refChecker) WouldViolate(t memmodel.ThreadID, rf *trace.Store) bool {
	if _, in := c.deferred[t]; in {
		return false
	}
	ups := c.aux.updatesFor(rf)
	if len(ups) == 0 {
		return false
	}
	scratch := c.apply
	clear(scratch)
	for _, u := range ups {
		iv, ok := scratch[u.key]
		if !ok {
			if iv, ok = c.cons[u.key]; !ok {
				iv = intervals.New()
			}
		}
		var next intervals.Interval
		if u.lo {
			next, _ = iv.ConstrainLo(u.clock, u.store)
		} else {
			next, _ = iv.ConstrainHi(u.clock, u.store)
		}
		if next.Empty() {
			return true
		}
		scratch[u.key] = next
	}
	return false
}

func (c *refChecker) CheckRead(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID) []*Violation {
	if _, in := c.deferred[t]; in {
		return nil
	}
	return c.applyUpdates(t, addr, rf, loc, c.aux.updatesFor(rf), modeCheck)
}

func (c *refChecker) FlagRead(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID) bool {
	if _, in := c.deferred[t]; in {
		return false
	}
	would := c.WouldViolate(t, rf)
	c.applyUpdates(t, addr, rf, loc, c.aux.updatesFor(rf), modeFlag)
	return would
}

func (c *refChecker) ObserveRead(t memmodel.ThreadID, addr memmodel.Addr, rf *trace.Store, loc trace.LocID) []*Violation {
	if _, in := c.deferred[t]; in {
		c.deferred[t] = append(c.deferred[t], deferredLoad{thread: t, addr: addr, rf: rf, loc: loc})
		return nil
	}
	return c.applyUpdates(t, addr, rf, loc, c.aux.updatesFor(rf), modeObserve)
}

func (c *refChecker) BeginChecksumRegion(t memmodel.ThreadID) {
	if _, in := c.deferred[t]; !in {
		c.deferred[t] = []deferredLoad{}
	}
}

func (c *refChecker) EndChecksumRegion(t memmodel.ThreadID, valid bool) []*Violation {
	loads, in := c.deferred[t]
	if !in {
		return nil
	}
	delete(c.deferred, t)
	if !valid {
		return nil
	}
	var all []*Violation
	for _, dl := range loads {
		all = append(all, c.applyUpdates(dl.thread, dl.addr, dl.rf, dl.loc, c.aux.updatesFor(dl.rf), modeObserve)...)
	}
	return all
}

func (c *refChecker) Snapshot() *refSnapshot {
	s := &refSnapshot{
		cons:     make(map[consKey]intervals.Interval, len(c.cons)),
		seen:     make(map[violationKey]bool, len(c.seen)),
		deferred: make(map[memmodel.ThreadID][]deferredLoad, len(c.deferred)),
	}
	for k, v := range c.cons {
		s.cons[k] = v
	}
	for k := range c.seen {
		s.seen[k] = true
	}
	for t, dl := range c.deferred {
		cp := make([]deferredLoad, len(dl))
		copy(cp, dl)
		s.deferred[t] = cp
	}
	s.violations = make([]*Violation, len(c.violations))
	copy(s.violations, c.violations)
	return s
}

func (c *refChecker) Restore(s *refSnapshot) {
	clear(c.cons)
	for k, v := range s.cons {
		c.cons[k] = v
	}
	clear(c.seen)
	for k := range s.seen {
		c.seen[k] = true
	}
	clear(c.deferred)
	for t, dl := range s.deferred {
		c.deferred[t] = dl
	}
	c.violations = s.violations
}

// checkerPair drives the dense checker and the map reference through the
// same calls, on checkers attached to one machine's trace, and fails the
// test at the first call or state that differs.
type checkerPair struct {
	t     *testing.T
	m     persist.Model
	d     *Checker
	r     *refChecker
	where string
	// asked logs each checker's known-key predicate calls and answers;
	// a reset appends resetMark to both.
	asked [2][]askedKey
	// grown holds the keys the known predicate added since the last
	// reset (growKnown); a reset forgets them, as a world does when its
	// next unit starts with another key set.
	grown map[string]bool
	// stampHits counts the reads the dense checker answered from an
	// applied-read stamp.
	stampHits int
}

// askedKey is one known-key predicate call and its answer.
type askedKey struct {
	key string
	ans bool
}

var resetMark = askedKey{key: "<reset>"}

type pairSnapshot struct {
	d *Snapshot
	r *refSnapshot
}

// newCheckerPair builds a pair. With a known predicate installed, a key
// is known if known says so or growKnown added it since the last reset.
func newCheckerPair(t *testing.T, opt Options, prov bool, known func(string) bool) *checkerPair {
	m := persist.MustNew(persist.Config{})
	p := &checkerPair{t: t, m: m, d: NewWithOptions(m.Trace(), opt), r: newRefChecker(m.Trace(), opt), grown: map[string]bool{}}
	p.d.SetProvenance(prov)
	p.r.SetProvenance(prov)
	if known != nil {
		ask := func(i int) func(string) bool {
			return func(k string) bool {
				ans := known(k) || p.grown[k]
				p.asked[i] = append(p.asked[i], askedKey{k, ans})
				return ans
			}
		}
		p.d.SetKnown(ask(0))
		p.r.SetKnown(ask(1))
	}
	return p
}

// growKnown makes the known predicate answer true for one key the
// reference has asked about, as a unit's key set grows when an
// execution reports a bug.
func (p *checkerPair) growKnown(rng *rand.Rand) {
	if n := len(p.asked[1]); n > 0 {
		if a := p.asked[1][rng.Intn(n)]; a != resetMark {
			p.grown[a.key] = true
		}
	}
}

// cachedAsks is the reference's predicate log as the dense checker
// should have made it: a call is dropped when an earlier call for the
// same key since the last reset answered true, which the checker caches.
func cachedAsks(log []askedKey) []askedKey {
	var out []askedKey
	known := map[string]bool{}
	for _, a := range log {
		switch {
		case a == resetMark:
			clear(known)
		case known[a.key]:
			continue
		case a.ans:
			known[a.key] = true
		}
		out = append(out, a)
	}
	return out
}

// render is a violation list's observable form: every report as
// String() renders it, its Key, and its provenance.
func render(vs []*Violation) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, "%s key=%s prov=%+v\n", v, v.Key(), v.Prov)
	}
	return b.String()
}

func (p *checkerPair) same(call string, d, r []*Violation) {
	p.t.Helper()
	if ds, rs := render(d), render(r); ds != rs {
		p.t.Fatalf("%s: %s returned\n%s\nreference returned\n%s", p.where, call, ds, rs)
	}
}

// sync compares the two checkers' whole observable state: the committed
// violations, every crash interval of every sub-execution and thread
// (the global-interval key included), and the known-key predicate calls
// so far, less those the dense checker answers from its cache.
func (p *checkerPair) sync(step string) {
	p.t.Helper()
	p.where = step
	p.same("Violations", p.d.Violations(), p.r.Violations())
	for sub := 0; sub <= p.m.Trace().Current().Index; sub++ {
		for th := globalThread; th < 4; th++ {
			if d, r := p.d.Interval(sub, th), p.r.Interval(sub, th); d != r {
				p.t.Fatalf("%s: Interval(%d, %d) = %v, reference %v", step, sub, th, d, r)
			}
		}
	}
	if d, r := fmt.Sprint(p.asked[0]), fmt.Sprint(cachedAsks(p.asked[1])); d != r {
		p.t.Fatalf("%s: known-key calls %s, reference %s", step, d, r)
	}
}

// read has thread th read addr from candidate pick (modulo the
// candidate count). Every candidate is first put to CheckRead, whose
// reports must be non-empty exactly when the reference's WouldViolate
// says the read violates. When flag is set, every candidate is then
// flagged, as read steering does. The picked one is loaded and observed.
func (p *checkerPair) read(th memmodel.ThreadID, addr memmodel.Addr, pick int, flag bool, label string) bool {
	p.t.Helper()
	cands := p.m.LoadCandidates(th, addr)
	lid := p.m.Intern(label)
	for i, c := range cands {
		d, r := p.d.CheckRead(th, addr, c.Store, lid), p.r.CheckRead(th, addr, c.Store, lid)
		p.same(fmt.Sprintf("CheckRead(cand %d)", i), d, r)
		if would := p.r.WouldViolate(th, c.Store); would != (len(d) > 0) {
			p.t.Fatalf("%s: CheckRead(cand %d) reported %d violations, reference WouldViolate %v", p.where, i, len(d), would)
		}
	}
	if flag {
		for i, c := range cands {
			if d, r := p.d.FlagRead(th, addr, c.Store, lid), p.r.FlagRead(th, addr, c.Store, lid); d != r {
				p.t.Fatalf("%s: FlagRead(cand %d) = %v, reference %v", p.where, i, d, r)
			}
		}
	}
	c := cands[pick%len(cands)]
	p.m.Load(th, addr, c, lid)
	if p.d.stampSub == p.m.Trace().Current().Index && p.d.stamped(c.Store) {
		p.stampHits++
	}
	d, r := p.d.ObserveRead(th, addr, c.Store, lid), p.r.ObserveRead(th, addr, c.Store, lid)
	p.same("ObserveRead", d, r)
	return len(d) > 0
}

func (p *checkerPair) snapshot() pairSnapshot { return pairSnapshot{p.d.Snapshot(), p.r.Snapshot()} }

func (p *checkerPair) restore(s pairSnapshot) {
	p.d.Restore(s.d)
	p.r.Restore(s.r)
}

func (p *checkerPair) reset() {
	p.m.Reset()
	p.d.Reset()
	p.r.Reset()
	clear(p.grown)
	p.asked[0] = append(p.asked[0], resetMark)
	p.asked[1] = append(p.asked[1], resetMark)
}

// driveRandomOps runs a seeded stream of stores, flushes, reads,
// re-reads, crashes, checksum regions, snapshots, restores, resets and
// known-key growth through the pair. Labels come from a small pool, so
// distinct stores share sites and violation keys collide the way they do
// in real ports. A re-read loads the last read address again, by any
// thread, several times: after a cross-crash read the crash image
// usually offers the same store again, which is the read an applied-read
// stamp answers. A restore is often followed by a re-read, which asks
// the known predicate again about a key the snapshot had not seen.
// A chain builds the happens-before edge across a crash that uniform
// picks seldom do: one thread stores a without a flush, then stores and
// flushes b, the machine crashes, and another thread loads b, then a.
// It is what makes the streams report violations, stamp re-reads of
// the stores they report on, and ask the known predicate.
func driveRandomOps(p *checkerPair, rng *rand.Rand, steps int) {
	addrs := []memmodel.Addr{0x1000, 0x1008, 0x2000, 0x3000}
	label := func(kind string) string { return fmt.Sprintf("%s#%d", kind, rng.Intn(4)) }
	var snaps []pairSnapshot
	value := memmodel.Value(1)
	last := addrs[0]
	reread := func(step, n int) {
		for ; n > 0; n-- {
			p.where = fmt.Sprintf("step %d reread", step)
			p.read(memmodel.ThreadID(rng.Intn(3)), last, rng.Intn(4), rng.Intn(3) == 0, label("ld"))
		}
	}
	chain := func(step int, th memmodel.ThreadID) {
		a, b := addrs[rng.Intn(2)], addrs[2+rng.Intn(2)]
		p.m.Store(th, a, value, p.m.Intern(label("st")))
		p.m.Store(th, b, value+1, p.m.Intern(label("st")))
		p.m.Flush(th, b, p.m.Intern(label("fl")))
		value += 2
		p.m.Crash()
		reader := (th + 1 + memmodel.ThreadID(rng.Intn(2))) % 3
		for _, addr := range []memmodel.Addr{b, a} {
			p.where = fmt.Sprintf("step %d chain read", step)
			p.read(reader, addr, rng.Intn(4), rng.Intn(3) == 0, label("ld"))
		}
		last = a
	}
	for step := 0; step < steps; step++ {
		th := memmodel.ThreadID(rng.Intn(3))
		addr := addrs[rng.Intn(len(addrs))]
		var op string
		switch k := rng.Intn(26); {
		case k < 2:
			op = "reread"
			reread(step, 2+rng.Intn(3))
		case k < 3:
			op = "grow known"
			p.growKnown(rng)
		case k < 4:
			op = "crash"
			if p.m.Trace().NumCrashes() < 4 {
				p.m.Crash()
			}
		case k < 10:
			op = "store"
			p.m.Store(th, addr, value, p.m.Intern(label("st")))
			value++
		case k < 12:
			op = "flush"
			p.m.Flush(th, addr, p.m.Intern(label("fl")))
		case k < 18:
			op = "read"
			p.where = fmt.Sprintf("step %d read", step)
			p.read(th, addr, rng.Intn(4), rng.Intn(3) == 0, label("ld"))
			last = addr
		case k < 19:
			op = "crash"
			if p.m.Trace().NumCrashes() < 4 {
				p.m.Crash()
			}
		case k < 20:
			op = "checksum"
			if rng.Intn(2) == 0 {
				p.d.BeginChecksumRegion(th)
				p.r.BeginChecksumRegion(th)
			} else {
				valid := rng.Intn(2) == 0
				p.where = fmt.Sprintf("step %d end checksum", step)
				p.same("EndChecksumRegion", p.d.EndChecksumRegion(th, valid), p.r.EndChecksumRegion(th, valid))
			}
		case k < 22:
			op = "snapshot"
			snaps = append(snaps, p.snapshot())
		case k < 23:
			op = "restore"
			if len(snaps) > 0 {
				p.restore(snaps[rng.Intn(len(snaps))])
				// Replay a read the restore may have undone.
				reread(step, rng.Intn(2))
			}
		case k < 25:
			op = "chain"
			if p.m.Trace().NumCrashes() < 4 {
				chain(step, th)
			}
		default:
			op = "reset"
			if rng.Intn(3) == 0 {
				p.reset()
				snaps = snaps[:0]
			}
		}
		p.sync(fmt.Sprintf("step %d (%s)", step, op))
	}
}

// TestDenseCheckerMatchesMapReference: the dense constraint rows, the
// slice scratch, the dense violation ids with their seen set and cached
// known answers, and the applied-read stamps behave exactly like the
// map-keyed checker they replaced, which keeps no stamps and no cache —
// same returned and committed reports (rendered), same crash intervals,
// same FlagRead answers, same known-key queries less the cached ones —
// over seeded random op streams and the oracle programs, under both
// ablations, with provenance and a known-key predicate whose key set
// grows between resets, and across snapshot round trips, re-reads
// within and across sub-executions, crashes and resets.
func TestDenseCheckerMatchesMapReference(t *testing.T) {
	opts := []Options{{}, {GlobalInterval: true}, {NoHBClosure: true}}
	known := func(k string) bool { return len(k)%3 == 0 }
	violations, stampHits, cachedAnswers := 0, 0, 0
	tally := func(p *checkerPair) {
		violations += len(p.d.Violations())
		stampHits += p.stampHits
		cachedAnswers += len(p.asked[1]) - len(p.asked[0])
	}
	knownAsks := 0
	for seed := int64(0); seed < 150; seed++ {
		for oi, opt := range opts {
			var kn func(string) bool
			if seed%2 == 1 {
				kn = known
			}
			p := newCheckerPair(t, opt, seed%3 == 0, kn)
			driveRandomOps(p, rand.New(rand.NewSource(seed*7+int64(oi))), 120)
			tally(p)
			for _, a := range p.asked[1] {
				if a != resetMark {
					knownAsks++
				}
			}
		}
	}
	// The random streams must reach the emptying path on their own: the
	// oracle programs below do not cover what they alone drive, such as
	// resets between known-key asks and checksum regions.
	t.Logf("random op streams: %d violations, %d stamped re-reads, %d known-key asks", violations, stampHits, knownAsks)
	if violations == 0 || stampHits == 0 || knownAsks == 0 {
		t.Fatalf("random op streams: %d violations, %d stamped re-reads, %d known-key asks; the comparison is too weak", violations, stampHits, knownAsks)
	}
	// The oracle programs, every pick vector, with a snapshot at the
	// last crash restored three times: after the post-crash reads, after
	// more reads on the restored state, and after the known predicate
	// learned every key asked so far. Then the pair resets, forgetting
	// the learned keys, and runs the program once more. On odd seeds a
	// known predicate is installed.
	for seed := int64(0); seed < 120; seed++ {
		ops := genOps(seed)
		p1, p2 := genOps2(seed)
		var kn func(string) bool
		if seed%2 == 1 {
			kn = known
		}
		for picks := 0; picks < 27; picks++ {
			for oi, opt := range opts {
				p := newCheckerPair(t, opt, false, kn)
				var snap pairSnapshot
				postReads := func(tag string) {
					for i, a := range []memmodel.Addr{0x1000, 0x1008, 0x2000} {
						p.where = fmt.Sprintf("seed %d picks %d opt %d %s read %d", seed, picks, oi, tag, i)
						p.read(0, a, picks/[]int{1, 3, 9}[i]%3, i == 1, "post read")
						p.sync(p.where)
					}
				}
				run := func() {
					for _, prog := range [][]oracleOp{ops, p1, p2} {
						for _, op := range prog {
							switch op.kind {
							case 0:
								p.m.Store(op.thread, op.addr, op.value, p.m.Intern(fmt.Sprintf("s%d", op.thread)))
							case 1:
								p.m.Flush(op.thread, op.addr, p.m.Intern("f"))
							case 2:
								p.where = fmt.Sprintf("seed %d sync read", seed)
								p.read(op.thread, op.addr, 0, false, "sync read")
							}
						}
						p.m.Crash()
						snap = p.snapshot()
					}
					postReads("first")
				}
				run()
				p.restore(snap)
				p.sync("restored")
				postReads("second")
				for _, a := range p.asked[1] {
					p.grown[a.key] = true
				}
				p.restore(snap)
				p.sync("restored again")
				postReads("third")
				p.reset()
				p.sync("reset")
				run()
				tally(p)
			}
		}
	}
	t.Logf("%d violations, %d stamped re-reads, %d cached known answers", violations, stampHits, cachedAnswers)
	if cachedAnswers == 0 {
		t.Fatal("no known answer was reused; the comparison is too weak")
	}
}
