// Differential cross-model checking.
//
// PSan's verdicts are defined relative to a persistency model; trusting
// a simulated model means checking it against an independent one
// (Klimis & Donaldson's persistency-model validation argument). Two
// relations are checkable on every program in the suite:
//
//   - px86 vs ptsosyn: the two weak backends are observationally
//     equivalent, so the same campaign must surface the identical
//     violation key set (DiffModels);
//   - strict vs a weak model: strict persistency is the robustness
//     reference, so a robust program must compute the same final heap
//     under both — every post-crash read of a robust program is
//     consistent with some strict execution (DiffFinalHeaps).
package explore

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/memmodel"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// DiffReport is the outcome of running one program's campaign under two
// persistency-model backends with otherwise identical options.
type DiffReport struct {
	Program        string
	Mode           Mode
	ModelA, ModelB string
	// A and B are the two campaigns' results.
	A, B *Result
	// OnlyA and OnlyB are the violation keys reported under exactly one
	// model, sorted.
	OnlyA, OnlyB []string
	// ExecutionsDiffer reports a coverage divergence: the campaigns ran
	// different execution counts (in model-check mode that means the
	// decision trees themselves differ).
	ExecutionsDiffer bool
}

// Divergent reports whether the two campaigns disagree.
func (d *DiffReport) Divergent() bool {
	return len(d.OnlyA) > 0 || len(d.OnlyB) > 0 || d.ExecutionsDiffer
}

// String renders a one-paragraph summary.
func (d *DiffReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "differential %s [%v] %s vs %s: ", d.Program, d.Mode, d.ModelA, d.ModelB)
	if !d.Divergent() {
		fmt.Fprintf(&b, "agree (%d violation(s), %d executions)", len(d.A.Violations), d.A.Executions)
		return b.String()
	}
	fmt.Fprintf(&b, "DIVERGE:")
	if d.ExecutionsDiffer {
		fmt.Fprintf(&b, " executions %d vs %d;", d.A.Executions, d.B.Executions)
	}
	for _, k := range d.OnlyA {
		fmt.Fprintf(&b, " only-%s: %s;", d.ModelA, k)
	}
	for _, k := range d.OnlyB {
		fmt.Fprintf(&b, " only-%s: %s;", d.ModelB, k)
	}
	return strings.TrimSuffix(b.String(), ";")
}

// DiffModels runs the same campaign (same options, seeds, schedules)
// under two backends and compares the violation key sets. opt.Model's
// Name is overridden by a and b in turn; every other option applies to
// both runs.
func DiffModels(p Program, opt Options, a, b persist.Config) *DiffReport {
	optA, optB := opt, opt
	optA.Model = a
	optB.Model = b
	resA := Run(p, optA)
	resB := Run(p, optB)
	keysA, keysB := resA.ViolationKeys(), resB.ViolationKeys()
	d := &DiffReport{
		Program: p.Name(), Mode: opt.Mode,
		ModelA: modelName(a), ModelB: modelName(b),
		A: resA, B: resB,
		ExecutionsDiffer: resA.Executions != resB.Executions,
	}
	d.OnlyA = keysMissingFrom(keysA, keysB)
	d.OnlyB = keysMissingFrom(keysB, keysA)
	return d
}

// modelName resolves a config to the backend name it selects.
func modelName(cfg persist.Config) string { return resolveModel(cfg.Name) }

// keysMissingFrom returns the sorted elements of have that are absent
// from want.
func keysMissingFrom(have, want []string) []string {
	set := make(map[string]bool, len(want))
	for _, k := range want {
		set[k] = true
	}
	var missing []string
	for _, k := range have {
		if !set[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing
}

// HeapDiff is one word whose final value differs between two models'
// matched executions.
type HeapDiff struct {
	Addr memmodel.Addr
	A, B memmodel.Value
}

// DiffFinalHeaps runs one deterministic everything-persists execution
// of p under each backend — same seed, crash between phases, newest
// candidate at every post-crash read — and compares the final value of
// every word either execution stored. For a robust program the result
// must be empty against the strict oracle: if every store is durably
// ordered before the reads that depend on it, losing nothing at the
// crash (strict) and losing only what px86 allows but the newest-read
// policy retains must agree word for word.
func DiffFinalHeaps(p Program, seed int64, a, b persist.Config) []HeapDiff {
	heapA := finalHeap(p, seed, a)
	heapB := finalHeap(p, seed, b)
	addrs := make(map[memmodel.Addr]bool, len(heapA))
	for addr := range heapA {
		addrs[addr] = true
	}
	for addr := range heapB {
		addrs[addr] = true
	}
	var diffs []HeapDiff
	for addr := range addrs {
		va, vb := heapA[addr], heapB[addr]
		if va != vb {
			diffs = append(diffs, HeapDiff{Addr: addr, A: va, B: vb})
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Addr < diffs[j].Addr })
	return diffs
}

// finalHeap executes p once under the given backend — crashing between
// phases, reading the newest candidate everywhere — and returns the
// final readable value of every word stored during the execution.
func finalHeap(p Program, seed int64, model persist.Config) map[memmodel.Addr]memmodel.Value {
	w := pmem.NewWorld(pmem.Config{CrashTarget: -1, Seed: seed, Model: model})
	phases := p.Phases()
	for i, phase := range phases {
		w.SetCrashTarget(-1)
		w.RunPhase(phase)
		if i < len(phases)-1 {
			w.Crash()
		}
	}
	// Collect every word stored in any sub-execution, then read each
	// one's newest surviving candidate. The read does not go through a
	// thread: it must not disturb the trace-based verdicts being
	// compared, so it inspects candidates directly.
	heap := make(map[memmodel.Addr]memmodel.Value)
	tr := w.M.Trace()
	for _, sub := range tr.SubExecs() {
		for _, st := range sub.Stores() {
			heap[st.Addr] = 0
		}
	}
	for addr := range heap {
		cands := w.M.LoadCandidates(0, addr)
		heap[addr] = cands[0].Store.Value
	}
	return heap
}
