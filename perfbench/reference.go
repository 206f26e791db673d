package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"

	"repro/internal/benchmarks/bench"
	"repro/internal/report"
)

// verdict is one campaign's reference outcome.
type verdict struct {
	Executions int `json:"executions"`
	// Keys is the sorted violation key set the campaign must report.
	Keys []string `json:"keys,omitempty"`
	// Rows, when positive, replaces the key-set comparison: the campaign
	// must match this many of its port's expected rows (see
	// workload.matchRows).
	Rows int `json:"rows,omitempty"`
}

// table2Summary is the Table 2 row match of one random-table2
// repetition, as report.Table2 computes it.
type table2Summary struct {
	Rows       int            `json:"rows"`
	Found      int            `json:"found"`
	New        int            `json:"new"`
	MemMgmt    map[string]int `json:"mem_mgmt"`
	FixedClean bool           `json:"fixed_clean"`
}

// reference holds every campaign's expected verdict, by workload and
// campaign name, plus the random-table2 row match.
type reference struct {
	Campaigns map[string]map[string]verdict `json:"campaigns"`
	Table2    table2Summary                 `json:"table2"`
}

func loadReference(data []byte) (*reference, error) {
	ref := &reference{}
	if err := json.Unmarshal(data, ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	for _, w := range workloads {
		if len(ref.Campaigns[w.name]) == 0 {
			return nil, fmt.Errorf("reference.json: no verdicts for %s", w.name)
		}
	}
	return ref, nil
}

// check compares one campaign with its reference verdict.
func (ref *reference) check(w *workload, c campaign) error {
	want, ok := ref.Campaigns[w.name][c.name]
	if !ok {
		return fmt.Errorf("no reference verdict")
	}
	r := c.res
	if r.Quarantined > 0 {
		return fmt.Errorf("%d quarantined executions", r.Quarantined)
	}
	if r.Executions != want.Executions {
		return fmt.Errorf("%d executions, reference %d", r.Executions, want.Executions)
	}
	if c.dispatched {
		if !r.Isolated || r.Degraded || r.Redeliveries > 0 || len(r.PoisonUnits) > 0 {
			return fmt.Errorf("isolation unhealthy: isolated=%v degraded=%v redeliveries=%d poisoned=%d",
				r.Isolated, r.Degraded, r.Redeliveries, len(r.PoisonUnits))
		}
	}
	if want.Rows > 0 {
		covered, _ := bench.MatchExpected(c.port.Expected, r.Violations)
		if c.unexposed && len(r.Violations) == 0 {
			return nil
		}
		if len(covered) != want.Rows {
			return fmt.Errorf("%d expected rows matched, reference %d", len(covered), want.Rows)
		}
		return nil
	}
	if got := r.ViolationKeys(); !slices.Equal(got, want.Keys) {
		return fmt.Errorf("violation keys %q, reference %q", got, want.Keys)
	}
	return nil
}

// summarizeTable2 computes the Table 2 row match of random-table2's
// campaigns the way report.Table2 does.
func summarizeTable2(cs []campaign) table2Summary {
	s := table2Summary{MemMgmt: map[string]int{}, FixedClean: true}
	for _, c := range cs {
		if c.name == c.port.Name+"/"+bench.Fixed.String() {
			s.FixedClean = s.FixedClean && len(c.res.Violations) == 0
			continue
		}
		covered, _ := bench.MatchExpected(c.port.Expected, c.res.Violations)
		for _, cv := range covered {
			s.Found++
			if cv.Bug.MemMgmt {
				s.MemMgmt[c.port.Name]++
				continue
			}
			s.Rows++
			if !cv.Bug.Known {
				s.New++
			}
		}
	}
	return s
}

// fromReport converts report.Table2's result into a summary.
func fromReport(t *report.Table2Result) table2Summary {
	s := table2Summary{Found: t.TotalFound, New: t.NewBugs, MemMgmt: t.MemMgmt, FixedClean: true}
	for _, row := range t.Rows {
		if row.Found {
			s.Rows++
		}
	}
	for _, clean := range t.FixedClean {
		s.FixedClean = s.FixedClean && clean
	}
	return s
}

// referenceSeeds are the seeds a recorded verdict must hold for; a
// verdict that differs between them is not a usable reference.
var referenceSeeds = []int64{1, 2, 3}

// recordReference recomputes every reference verdict at Workers=1 and
// writes reference.json. Model-check verdicts are seed-independent; the
// random-mode ones are required to agree over referenceSeeds, and
// random-table2's row match is taken from report.Table2 and required to
// equal the benchmark's own match.
func recordReference(path, workerBin string, log io.Writer) error {
	ref := &reference{Campaigns: map[string]map[string]verdict{}}
	for _, w := range workloads {
		ref.Campaigns[w.name] = map[string]verdict{}
		for _, seed := range referenceSeeds {
			cs, err := w.run(env{seed: seed, workers: 1, workerBin: workerBin})
			if err != nil {
				return err
			}
			for _, c := range cs {
				v := verdict{Executions: c.res.Executions, Keys: c.res.ViolationKeys()}
				if w.matchRows && c.name != c.port.Name+"/"+bench.Fixed.String() {
					covered, _ := bench.MatchExpected(c.port.Expected, c.res.Violations)
					v = verdict{Executions: c.res.Executions, Rows: len(covered)}
				}
				if prev, ok := ref.Campaigns[w.name][c.name]; ok && !reflect.DeepEqual(prev, v) {
					return fmt.Errorf("%s %s: verdict differs between seeds: %+v vs %+v", w.name, c.name, prev, v)
				}
				ref.Campaigns[w.name][c.name] = v
			}
			if w.name == "random-table2" {
				own := summarizeTable2(cs)
				rep := fromReport(report.Table2(report.Options{Executions: randomExecs, Seed: seed, Workers: 1}))
				if !reflect.DeepEqual(own, rep) {
					return fmt.Errorf("random-table2 seed %d: row match %+v differs from report.Table2's %+v", seed, own, rep)
				}
				ref.Table2 = rep
			}
			fmt.Fprintf(log, "perfbench: recorded %s seed %d\n", w.name, seed)
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
