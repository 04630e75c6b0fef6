package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mobistreams/internal/bench"
)

const fixtureBaseline = `{
	"comment": "fixture",
	"max_scheduler_tuple_loss": 0,
	"incr_pause_mean_ms_largest": 10.0,
	"elastic_p99_hotspot_ms": 650.0,
	"placement_loss_vs_reactive": 0.5
}`

// fixture is a healthy result set, one typed slice per gated experiment,
// and the baseline it is gated against.
type fixture struct {
	baseline         string
	churn, placement []bench.ChurnOutcome
	ckpt             []bench.CkptOutcome
	scale            []bench.ScaleRow
	elastic          []bench.ElasticOutcome
	fig10            []bench.Fig10Row
}

func healthy() *fixture {
	const mb = 1 << 20
	return &fixture{
		baseline: fixtureBaseline,
		churn: []bench.ChurnOutcome{
			{Scheme: "ms", Mode: "reactive", Lost: 50},
			{Scheme: "ms", Mode: "planner", Lost: 0},
		},
		ckpt: []bench.CkptOutcome{
			{Mode: "full", StateBytes: mb, PauseMeanMs: 40},
			{Mode: "incremental", StateBytes: mb, PauseMeanMs: 9.5},
		},
		scale: []bench.ScaleRow{
			{Phones: 8, Channels: 1, TPS: 49}, {Phones: 8, Channels: 4, TPS: 48},
			{Phones: 64, Channels: 1, TPS: 42}, {Phones: 64, Channels: 4, TPS: 334},
		},
		elastic: []bench.ElasticOutcome{
			{Mode: "static", P99HotMs: 4500, DegradeFactor: 13},
			{Mode: "elastic", P99HotMs: 640, DegradeFactor: 1.5, Splits: 2},
		},
		placement: []bench.ChurnOutcome{
			{Mode: "reactive", Lost: 8, CrossChannelShare: 0.55},
			{Mode: "planner", Lost: 2, CrossChannelShare: 0.12},
		},
		fig10: []bench.Fig10Row{
			{App: "BCP", Scheme: "local", PreservedBytes: 18 * mb},
			{App: "BCP", Scheme: "dist-1", PreservedBytes: 17 * mb, CkptReplNetBytes: 10 * mb},
			{App: "BCP", Scheme: "dist-2", PreservedBytes: 16 * mb, CkptReplNetBytes: 21 * mb},
			{App: "BCP", Scheme: "dist-3", PreservedBytes: 11 * mb, CkptReplNetBytes: 26 * mb},
			{App: "BCP", Scheme: "ms", PreservedBytes: 9 * mb, CkptReplNetBytes: 6 * mb},
		},
	}
}

// gate writes the fixture as a results file (each experiment's rows through
// the same writer msbench -out uses; a nil slice leaves the experiment out)
// and runs the gate over it.
func (f *fixture) gate(t *testing.T) (string, error) {
	t.Helper()
	results := make(map[string]any)
	for name, rows := range map[string]any{
		"churn": f.churn, "checkpoint": f.ckpt, "scale": f.scale, "elastic": f.elastic,
		"placement": f.placement, "fig10": f.fig10,
	} {
		if !reflect.ValueOf(rows).IsNil() {
			results[name] = rows
		}
	}
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(f.baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results.json")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteResults(file, results); err != nil {
		t.Fatal(err)
	}
	file.Close()
	var out bytes.Buffer
	err = runCompare(baseline, []string{path}, &out)
	return out.String(), err
}

func TestComparePasses(t *testing.T) {
	out, err := healthy().gate(t)
	if err != nil {
		t.Fatalf("healthy results failed the gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("missing pass banner:\n%s", out)
	}
	// Every gate row of the table printed a line.
	rows := 0
	for _, e := range bench.Experiments {
		rows += len(e.Gates)
	}
	if got := strings.Count(out, "gate: "); got != rows+1 {
		t.Fatalf("%d gate lines for %d gate rows:\n%s", got-1, rows, out)
	}
}

// gateCases is the gate's fail-path table: for every gate row of
// bench.Experiments a regressed fixture (a small change to the healthy one
// that must trip that row), and for every gated experiment a missing-row
// fixture (row ""; it leaves none of the experiment's rows a sample), each
// with the FAIL line it must print. The case named X runs as the top-level
// test TestCompareFailsOnX.
var gateCases = []struct {
	name   string
	exp    string
	row    string // the gate row a regressed case trips: its baseline key, or What for a structural row
	mutate func(f *fixture)
	fail   string
}{
	// churn: the planner arm losing tuples past baseline×1.2 + 3. A results
	// set without planner-mode rows used to pass: the worst loss stayed 0.
	{"TupleLossRegression", "churn", "max_scheduler_tuple_loss",
		func(f *fixture) { f.churn[1].Lost = 4 }, "tuple loss regressed: 4 > 3"},
	{"MissingChurnRows", "churn", "",
		func(f *fixture) { f.churn = f.churn[:1] }, "churn results carry no planner-mode rows"},

	{"CheckpointPauseRegression", "checkpoint", "incr_pause_mean_ms_largest",
		func(f *fixture) { f.ckpt[1].PauseMeanMs = 17.5 }, "checkpoint pause regressed: 17.50 ms > 17.00 ms"},
	{"MissingCheckpointRows", "checkpoint", "",
		func(f *fixture) { f.ckpt = f.ckpt[:1] }, "checkpoint results carry no incremental pause sample"},

	// scale: one channel beating four at the largest size means channel
	// planning stopped paying.
	{"ScaleChannelClaim", "scale", "scale 2x one-channel tuples/s at the largest size",
		func(f *fixture) { f.scale[2].TPS, f.scale[3].TPS = 334, 42 },
		"scale sweep: four channels no longer deliver 2x one channel at the largest size: 668.0 >= 42.0"},
	{"MissingScaleRows", "scale", "",
		func(f *fixture) { f.scale = f.scale[:3] }, "scale results carry no 1-channel and 4-channel row at one region size"},

	// elastic: a hotspot p99 past baseline×1.2 plus grace means the
	// split/merge policy stopped absorbing the hotspot. Exactly-once across
	// live splits is pinned at zero with no grace: one duplicate fails the
	// build even when the latency numbers are healthy.
	{"ElasticP99Regression", "elastic", "elastic_p99_hotspot_ms",
		func(f *fixture) { f.elastic[1].P99HotMs, f.elastic[1].Splits = 3200, 0 },
		"elastic hotspot p99 regressed: 3200.0 ms > 880.0 ms"},
	{"ElasticDuplicates", "elastic", "elastic duplicate outputs",
		func(f *fixture) { f.elastic[1].Duplicates = 1 }, "elastic run published 1 duplicate outputs"},
	{"MissingElasticRow", "elastic", "",
		func(f *fixture) { f.elastic = f.elastic[:1] }, "elastic results carry no elastic-mode hotspot sample"},

	// placement: a 5x loss ratio against a 0.5 baseline means pack-to-empty
	// planning stopped paying for itself under churn. The structural claim
	// has no grace: the planner merely matching the reactive arm's
	// cross-channel share fails.
	{"PlacementLossRegression", "placement", "placement_loss_vs_reactive",
		func(f *fixture) { f.placement[1].Lost = 40 }, "placement loss vs reactive regressed: 5.00 > 2.10"},
	{"PlacementCrossChannelClaim", "placement", "placement planner cross-channel share",
		func(f *fixture) { f.placement[1].CrossChannelShare = 0.55 },
		"placement planner no longer beats reactive on cross-channel share: 0.550 >= 0.550"},
	{"PlacementDuplicates", "placement", "placement planner duplicate outputs",
		func(f *fixture) { f.placement[1].Duplicates = 1 }, "placement planner run published 1 duplicate outputs"},
	{"MissingPlacementRows", "placement", "",
		func(f *fixture) { f.placement = f.placement[:1] }, "placement results carry no reactive+planner row pair"},

	// fig10: the paper's orderings. ms and dist-3 checkpoint bytes swapped
	// is the reproduction visibly broken; the others move one scheme past
	// its neighbour.
	{"Fig10SwappedCheckpointBytes", "fig10", "fig10 BCP checkpoint/replication bytes, ms vs dist-1",
		func(f *fixture) {
			ms, d3 := &f.fig10[4], &f.fig10[3]
			ms.CkptReplNetBytes, d3.CkptReplNetBytes = d3.CkptReplNetBytes, ms.CkptReplNetBytes
		},
		"fig10 ordering broken on BCP checkpoint/replication bytes: ms 26.00 MB >= dist-1 10.00 MB"},
	{"Fig10Dist1PastDist2", "fig10", "fig10 BCP checkpoint/replication bytes, dist-1 vs dist-2",
		func(f *fixture) { f.fig10[1].CkptReplNetBytes = 22 << 20 },
		"fig10 ordering broken on BCP checkpoint/replication bytes: dist-1 22.00 MB >= dist-2 21.00 MB"},
	{"Fig10Dist2PastDist3", "fig10", "fig10 BCP checkpoint/replication bytes, dist-2 vs dist-3",
		func(f *fixture) { f.fig10[3].CkptReplNetBytes = 21 << 20 },
		"fig10 ordering broken on BCP checkpoint/replication bytes: dist-2 21.00 MB >= dist-3 21.00 MB"},
	{"Fig10PreservedPastDist3", "fig10", "fig10 BCP preserved bytes, ms vs dist-3",
		func(f *fixture) { f.fig10[4].PreservedBytes = 12 << 20 },
		"fig10 ordering broken on BCP preserved bytes: ms 12.00 MB >= dist-3 11.00 MB"},
	{"Fig10Dist3PastLocal", "fig10", "fig10 BCP preserved bytes, dist-3 vs local",
		func(f *fixture) { f.fig10[0].PreservedBytes = 10 << 20 },
		"fig10 ordering broken on BCP preserved bytes: dist-3 11.00 MB >= local 10.00 MB"},
	{"MissingFig10Rows", "fig10", "",
		func(f *fixture) {
			for i := range f.fig10 {
				f.fig10[i].App = "SignalGuru"
			}
		},
		"fig10 results carry no BCP row for a scheme its orderings name"},
}

// failsOn runs the gateCases entry named after the calling test.
func failsOn(t *testing.T) {
	t.Helper()
	name := strings.TrimPrefix(t.Name(), "TestCompareFailsOn")
	for _, c := range gateCases {
		if c.name != name {
			continue
		}
		f := healthy()
		c.mutate(f)
		out, err := f.gate(t)
		if err == nil {
			t.Fatalf("the broken fixture passed the gate:\n%s", out)
		}
		if !strings.Contains(out, "FAIL "+c.fail) {
			t.Fatalf("failure not attributed (want FAIL %q):\n%s", c.fail, out)
		}
		return
	}
	t.Fatalf("no gateCases entry %q", name)
}

func TestCompareFailsOnTupleLossRegression(t *testing.T)         { failsOn(t) }
func TestCompareFailsOnMissingChurnRows(t *testing.T)            { failsOn(t) }
func TestCompareFailsOnCheckpointPauseRegression(t *testing.T)   { failsOn(t) }
func TestCompareFailsOnMissingCheckpointRows(t *testing.T)       { failsOn(t) }
func TestCompareFailsOnScaleChannelClaim(t *testing.T)           { failsOn(t) }
func TestCompareFailsOnMissingScaleRows(t *testing.T)            { failsOn(t) }
func TestCompareFailsOnElasticP99Regression(t *testing.T)        { failsOn(t) }
func TestCompareFailsOnElasticDuplicates(t *testing.T)           { failsOn(t) }
func TestCompareFailsOnMissingElasticRow(t *testing.T)           { failsOn(t) }
func TestCompareFailsOnPlacementLossRegression(t *testing.T)     { failsOn(t) }
func TestCompareFailsOnPlacementCrossChannelClaim(t *testing.T)  { failsOn(t) }
func TestCompareFailsOnPlacementDuplicates(t *testing.T)         { failsOn(t) }
func TestCompareFailsOnMissingPlacementRows(t *testing.T)        { failsOn(t) }
func TestCompareFailsOnFig10SwappedCheckpointBytes(t *testing.T) { failsOn(t) }
func TestCompareFailsOnFig10Dist1PastDist2(t *testing.T)         { failsOn(t) }
func TestCompareFailsOnFig10Dist2PastDist3(t *testing.T)         { failsOn(t) }
func TestCompareFailsOnFig10PreservedPastDist3(t *testing.T)     { failsOn(t) }
func TestCompareFailsOnFig10Dist3PastLocal(t *testing.T)         { failsOn(t) }
func TestCompareFailsOnMissingFig10Rows(t *testing.T)            { failsOn(t) }

// TestCompareFailsOnMissingExperiment: a gated experiment absent from the
// results altogether (a CI step that never ran, a typo in -exp) fails.
func TestCompareFailsOnMissingExperiment(t *testing.T) {
	f := healthy()
	f.elastic = nil
	out, err := f.gate(t)
	if err == nil || !strings.Contains(out, "FAIL results carry no elastic experiment") {
		t.Fatalf("results without the elastic experiment: err=%v\n%s", err, out)
	}
}

// TestCompareFailsOnOrphanBaselineKey: a baseline key that no gate row reads
// (left behind when its row was deleted) fails instead of lingering.
func TestCompareFailsOnOrphanBaselineKey(t *testing.T) {
	f := healthy()
	f.baseline = strings.Replace(fixtureBaseline, "\n}", ",\n\t\"retired_row_key\": 1.0\n}", 1)
	out, err := f.gate(t)
	if err == nil || !strings.Contains(out, `FAIL baseline key "retired_row_key" is read by no gate row`) {
		t.Fatalf("baseline with an orphaned key: err=%v\n%s", err, out)
	}
}

// TestEveryGateRowHasFailPaths ties gateCases to the table: every gate row
// of bench.Experiments has a regressed case, every gated experiment a
// missing-row case under which none of its rows finds a sample, and every
// case the top-level test that runs it.
func TestEveryGateRowHasFailPaths(t *testing.T) {
	src, err := os.ReadFile("compare_test.go")
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, c := range gateCases {
		covered[c.exp+"/"+c.row] = true
		if !strings.Contains(string(src), "func TestCompareFailsOn"+c.name+"(t *testing.T)") {
			t.Errorf("gateCases entry %q has no TestCompareFailsOn%s to run it", c.name, c.name)
		}
		if c.row != "" {
			continue
		}
		f := healthy()
		c.mutate(f)
		out, _ := f.gate(t)
		for _, e := range bench.Experiments {
			for _, g := range e.Gates {
				if e.Name == c.exp && strings.Contains(out, "gate: "+g.What) {
					t.Errorf("%s: row %q still finds a sample in the missing-row fixture", c.name, g.What)
				}
			}
		}
	}
	for _, e := range bench.Experiments {
		if len(e.Gates) > 0 && !covered[e.Name+"/"] {
			t.Errorf("experiment %s has no missing-row case", e.Name)
		}
		for _, g := range e.Gates {
			id := g.Key
			if id == "" {
				id = g.What
			}
			if !covered[e.Name+"/"+id] {
				t.Errorf("%s gate row %q has no regressed case", e.Name, id)
			}
		}
	}
}
