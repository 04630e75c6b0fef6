package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Params are the command-line values an experiment may read. The gated
// experiments are fixed scenarios and read only Seed; Speedup, Apps and MaxK
// shape the paper's figures.
type Params struct {
	Seed    int64
	Speedup float64
	Apps    []App
	MaxK    int
}

// Experiment is one row of the table msbench runs, writes and gates.
type Experiment struct {
	Name  string
	About string
	// Run executes the experiment, prints its human table to w and returns
	// its JSON-tagged rows (nil for an experiment that only prints).
	Run func(p Params, w io.Writer) (rows any, err error)
	// Decode turns the experiment's entry of a results file back into the
	// row type Run returned.
	Decode func(raw json.RawMessage) (rows any, err error)
	// Gates are the claims the regression gate checks on the rows; Missing
	// is the FAIL line when a claim finds none of the rows it reads.
	Gates   []gateRow
	Missing string
}

// gateRow is one claim on an experiment's rows. With Key set the claim is a
// regression bound against the committed baseline: Pick's value must stay
// ≤ baseline[Key]×RegressionFactor + Grace (every baselined metric is
// lower-is-better). With Key empty the claim is structural and needs no
// baseline: Pick's value must stay < the bound Pick reports from the same
// rows.
type gateRow struct {
	Key   string
	Grace float64
	// What names the metric in the gate's printed line; Format prints one
	// value of it, unit included.
	What   string
	Format string
	Pick   func(rows any) (value, bound float64, found bool)
	// Fail is the FAIL line's format: two %s verbs, the value and the limit
	// it broke, each already rendered with Format.
	Fail string
}

// RegressionFactor is the gate's threshold: a baselined metric more than 20%
// worse than baseline fails the build. Each row's small absolute Grace keeps
// the gate from tripping on simulation noise around tiny baselines.
const RegressionFactor = 1.20

// Experiments is the table, in the order -exp all runs it.
var Experiments = []Experiment{
	fig6Experiment, fig8Experiment, fig9Experiment, fig10Experiment, table1Experiment,
	churnExperiment, checkpointExperiment, scaleExperiment,
	elasticExperiment, placementExperiment,
}

// experiment builds a table entry from typed parts: run produces the rows,
// table prints them, and the gate rows read them through pick.
func experiment[R any](name, about string, run func(Params) ([]R, error), table func(io.Writer, []R), missing string, gates ...gateRow) Experiment {
	return Experiment{
		Name:  name,
		About: about,
		Run: func(p Params, w io.Writer) (any, error) {
			rows, err := run(p)
			if err != nil {
				return nil, err
			}
			table(w, rows)
			return rows, nil
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var rows []R
			err := json.Unmarshal(raw, &rows)
			return rows, err
		},
		Gates:   gates,
		Missing: missing,
	}
}

// pick types a gateRow.Pick to its experiment's row type.
func pick[R any](f func(rows []R) (value, bound float64, found bool)) func(any) (float64, float64, bool) {
	return func(rows any) (float64, float64, bool) { return f(rows.([]R)) }
}

// find returns the first row is accepts.
func find[R any](rows []R, is func(R) bool) (row R, found bool) {
	for _, r := range rows {
		if is(r) {
			return r, true
		}
	}
	return row, false
}

// WriteResults writes experiment rows as one indented JSON object keyed by
// experiment name: the results file -out names and -compare reads.
func WriteResults(w io.Writer, results map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// ReadResults merges results files by experiment name; a later file's entry
// replaces an earlier one's.
func ReadResults(paths ...string) (map[string]json.RawMessage, error) {
	merged := make(map[string]json.RawMessage)
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var one map[string]json.RawMessage
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, rows := range one {
			merged[name] = rows
		}
	}
	return merged, nil
}
