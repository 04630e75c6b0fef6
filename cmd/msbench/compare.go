package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mobistreams/internal/bench"
)

// runCompare is the regression gate: it walks the gate rows of every table
// entry over the results files (merged by experiment name) and the committed
// baseline (BENCH_baseline.json; its comment says how to regenerate it),
// prints one line per row and fails on any row that broke its limit: a
// baselined number more than 20% plus the row's grace worse, a duplicate
// output, a structural claim (planner beats reactive on cross-channel share,
// four channels beat one by 2x, the paper's Fig. 10 orderings) that no longer
// holds. A gated experiment absent from the results, or a row whose samples
// are, is a failure too, and so is a baseline key that no gate row reads.
func runCompare(baselinePath string, resultPaths []string, w io.Writer) error {
	base, err := readBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	results, err := bench.ReadResults(resultPaths...)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	var failures []string
	read := make(map[string]bool)
	for _, e := range bench.Experiments {
		for _, g := range e.Gates {
			read[g.Key] = true
		}
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !read[k] {
			failures = append(failures, fmt.Sprintf("baseline key %q is read by no gate row", k))
		}
	}
	for _, e := range bench.Experiments {
		if len(e.Gates) == 0 {
			continue
		}
		raw, ok := results[e.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("results carry no %s experiment", e.Name))
			continue
		}
		rows, err := e.Decode(raw)
		if err != nil {
			return fmt.Errorf("%s results: %w", e.Name, err)
		}
		missing := false
		for _, g := range e.Gates {
			v, bound, found := g.Pick(rows)
			if !found {
				missing = true
				continue
			}
			value := fmt.Sprintf(g.Format, v)
			if g.Key == "" {
				limit := fmt.Sprintf(g.Format, bound)
				fmt.Fprintf(w, "gate: %s %s (must stay below %s)\n", g.What, value, limit)
				if v >= bound {
					failures = append(failures, fmt.Sprintf(g.Fail, value, limit))
				}
				continue
			}
			b, ok := base[g.Key]
			if !ok {
				return fmt.Errorf("baseline %s has no %q", baselinePath, g.Key)
			}
			bound = b*bench.RegressionFactor + g.Grace
			limit := fmt.Sprintf(g.Format, bound)
			fmt.Fprintf(w, "gate: %s %s (baseline %s, limit %s)\n", g.What, value, fmt.Sprintf(g.Format, b), limit)
			if v > bound {
				failures = append(failures, fmt.Sprintf(g.Fail, value, limit))
			}
		}
		if missing {
			failures = append(failures, e.Missing)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(w, "FAIL %s\n", f)
		}
		return fmt.Errorf("%d gate row(s) failed against %s", len(failures), baselinePath)
	}
	fmt.Fprintln(w, "gate: no regressions")
	return nil
}

// readBaseline reads the numeric keys of the baseline file.
func readBaseline(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	base := make(map[string]float64)
	for k, v := range fields {
		if f, ok := v.(float64); ok {
			base[k] = f
		}
	}
	return base, nil
}
