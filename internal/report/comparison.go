package report

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/benchmarks"
	"repro/internal/benchmarks/bench"
	"repro/internal/explore"
	"repro/internal/pmem"
)

// ComparisonRow is one benchmark's entry in the §6.4 tool comparison:
// distinct bugs reported by PSan, by the Witcher-style dependence
// heuristic, by the pmemcheck-style flush scan, and by the Jaaru-style
// assertion oracle, over the same explored executions.
type ComparisonRow struct {
	Benchmark string
	// PSan is the number of distinct robustness violations (bug sites).
	PSan int
	// Witcher is the number of distinct dependence-heuristic findings.
	Witcher int
	// WitcherMissed counts PSan bugs with no Witcher finding naming the
	// same missing-flush site ("PSan reported 31 bugs that could not be
	// found by Witcher").
	WitcherMissed int
	// Pmemcheck is the number of distinct unflushed-store sites flagged
	// (order-insensitive, includes harmless temporaries).
	Pmemcheck int
	// AssertFailures counts executions with at least one assertion
	// failure — all the Jaaru-style oracle reports.
	AssertFailures int
}

// Comparison runs each benchmark port once and feeds every explored
// execution's trace to the baseline checkers, reproducing the §6.4
// comparison on identical executions. The checkers run as an
// AfterExecution hook, so every port explores on one worker whatever
// opt.Workers says.
func Comparison(opt Options) []ComparisonRow {
	var rows []ComparisonRow
	for _, b := range benchmarks.All() {
		execs := b.Executions
		if opt.Executions > 0 {
			execs = opt.Executions
		}
		witcherKeys := map[string]bool{}
		pmemcheckKeys := map[string]bool{}
		assertExecs := 0
		res := explore.Run(b.Build(bench.Buggy), explore.Options{
			Mode:       b.PreferredMode,
			Executions: execs,
			Seed:       opt.Seed + 1,
			Model:      opt.modelConfig(),
			Obs:        opt.Obs,
			Context:    opt.Context,
			AfterExecution: func(w *pmem.World) {
				for _, f := range baseline.Witcher(w.M.Trace()) {
					witcherKeys[f.Key()] = true
				}
				for _, u := range baseline.Pmemcheck(w.M.Trace()) {
					pmemcheckKeys[u.Loc] = true
				}
				if len(baseline.AssertOracle(w)) > 0 {
					assertExecs++
				}
			},
		})
		// Count PSan bugs whose missing-flush site Witcher never named.
		missed := 0
		for _, v := range res.Violations {
			found := false
			for k := range witcherKeys {
				if len(k) > 0 && k[:indexOrEnd(k, '|')] == v.MissingFlush.Loc {
					found = true
					break
				}
			}
			if !found {
				missed++
			}
		}
		rows = append(rows, ComparisonRow{
			Benchmark:      b.Name,
			PSan:           len(res.Violations),
			Witcher:        len(witcherKeys),
			WitcherMissed:  missed,
			Pmemcheck:      len(pmemcheckKeys),
			AssertFailures: assertExecs,
		})
	}
	return rows
}

func indexOrEnd(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}

// RenderComparison lays the §6.4 comparison out.
func RenderComparison(rows []ComparisonRow) string {
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Benchmark,
			fmt.Sprintf("%d", r.PSan),
			fmt.Sprintf("%d", r.Witcher),
			fmt.Sprintf("%d", r.WitcherMissed),
			fmt.Sprintf("%d", r.Pmemcheck),
			fmt.Sprintf("%d", r.AssertFailures),
		})
	}
	return RenderTable(
		"§6.4 comparison on identical executions (distinct bug sites per tool)",
		[]string{"Benchmark", "PSan", "Witcher", "PSan-only vs Witcher", "pmemcheck (noisy)", "assert-failure execs"},
		table)
}
