package mobistreams

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// trajectoryFile is one committed BENCH_<pr>.json: the alternating
// parent/change pairs a PR measured on the repo benchmark.
type trajectoryFile struct {
	PR    int `json:"pr"`
	Claim struct {
		Workload string `json:"workload"`
		Metric   string `json:"metric"`
	} `json:"claim"`
	Rows []struct {
		Workload string                `json:"workload"`
		Metric   string                `json:"metric"`
		Pairs    int                   `json:"pairs"`
		Wins     int                   `json:"wins"`
		Parent   struct{ Med float64 } `json:"parent"`
		Change   struct{ Med float64 } `json:"change"`
	} `json:"rows"`
}

// TestBenchmarkTrajectory reads every committed BENCH_<pr>.json against the
// bounds BENCHMARK.json declares. Inside one file, a row the PR did not
// claim may not have a change median worse than its parent median by more
// than the metric's bound, and the claimed row must have won at least 9 of
// every 10 pairs. Numbers compare only inside one file's alternating pairs:
// between sessions the host drifts, so the cross-file step (one file's change
// column against the next file's parent column, which no code change
// separates when the PRs are adjacent) is logged as the noise floor, never
// judged.
func TestBenchmarkTrajectory(t *testing.T) {
	var decl struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	readJSON(t, "BENCHMARK.json", &decl)
	type metric struct {
		sign  float64 // +1 when lower is better: worse = (change-parent)/parent × sign
		bound float64
	}
	metrics := make(map[string]metric)
	for _, m := range decl.EndToEnd {
		metrics[m.Name] = metric{sign: map[string]float64{"lower": 1, "higher": -1}[m.Better], bound: m.Bound}
	}

	paths, err := filepath.Glob("BENCH_[0-9]*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_<pr>.json files (%v)", err)
	}
	files := make([]trajectoryFile, len(paths))
	for i, path := range paths {
		readJSON(t, path, &files[i])
	}
	sort.Slice(files, func(i, j int) bool { return files[i].PR < files[j].PR })

	type point struct {
		pr  int
		med float64
	}
	last := make(map[string]point) // workload/metric → the latest earlier file's change median
	for _, f := range files {
		claimed := false
		for _, r := range f.Rows {
			m, ok := metrics[r.Metric]
			if !ok || m.sign == 0 {
				t.Errorf("BENCH_%d.json: %s/%s is no end-to-end metric of BENCHMARK.json", f.PR, r.Workload, r.Metric)
				continue
			}
			key := r.Workload + "/" + r.Metric
			if before, ok := last[key]; ok && before.med != 0 {
				t.Logf("drift %-36s BENCH_%d change %.4g -> BENCH_%d parent %.4g (%+.1f%%)",
					key, before.pr, before.med, f.PR, r.Parent.Med, 100*(r.Parent.Med-before.med)/before.med)
			}
			last[key] = point{f.PR, r.Change.Med}
			if r.Workload == f.Claim.Workload && r.Metric == f.Claim.Metric {
				claimed = true
				if r.Pairs == 0 || r.Wins*10 < r.Pairs*9 {
					t.Errorf("BENCH_%d.json claims %s but won %d of %d pairs (need 9 of 10)", f.PR, key, r.Wins, r.Pairs)
				}
				continue
			}
			if worse := m.sign * (r.Change.Med - r.Parent.Med) / r.Parent.Med; worse > m.bound {
				t.Errorf("BENCH_%d.json: unclaimed %s regressed %.1f%% (parent %.4g, change %.4g), bound %.0f%%",
					f.PR, key, 100*worse, r.Parent.Med, r.Change.Med, 100*m.bound)
			}
		}
		if f.Claim.Metric != "" && !claimed {
			t.Errorf("BENCH_%d.json has no row for its claim %s/%s", f.PR, f.Claim.Workload, f.Claim.Metric)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
