package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"mobistreams/internal/obs"
)

// benchmarkFile mirrors BENCHMARK.json at the repo root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON keeps the program's vocabulary and the
// contract file in step: same names, units, directions and bounds, in the
// same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 6 {
		t.Fatalf("BENCHMARK.json has keys %v, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", keys)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 2 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, spec has %+v", i, f.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: file has %+v, spec has %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (max 128)", len(f.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per_layer %d: file has %+v, spec has %+v", i, got, m)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestSmokeLeavesNothingBehind runs every workload for 2 s with tracing on
// (the longest code path) and checks the result is correct and complete,
// the goroutine count is back to where it started, and no child process
// exists.
func TestSmokeLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for 2 s plus its micro phase")
	}
	for _, w := range workloads {
		before := runtime.NumGoroutine()
		res, l, rec, err := runOne(w.Name, 42, 2, true, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.Name, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		for _, m := range endToEnd {
			if v := res.e2e[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, v)
			}
		}
		if got := len(res.encode(l).Metrics); got != len(perLayer) {
			t.Errorf("%s: traced result has %d metrics, want %d", w.Name, got, len(perLayer))
		}
		if n := l["proc.goroutines_end"]; n != 0 {
			t.Errorf("%s: proc.goroutines_end = %v, want 0", w.Name, n)
		}
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", w.Name, before, after)
		}
		if kids := childProcesses(); len(kids) > 0 {
			t.Errorf("%s: child processes %v", w.Name, kids)
		}
		if len(rec.spans) < 5 || rec.spans[0].Name != "run" {
			t.Errorf("%s: span tree has %d spans", w.Name, len(rec.spans))
		}
		phases := make(map[string]bool)
		for _, sp := range rec.spans {
			if sp.Parent == 0 && sp.Trace == 0 {
				phases[sp.Name] = true
			}
		}
		for _, name := range []string{"setup", "capacity", "micro"} {
			if !phases[name] {
				t.Errorf("%s: no %q span under the root", w.Name, name)
			}
		}
	}
}

// TestDroppedTupleIsReported loses one tuple on purpose at the sink of
// each workload: the run must come back correct=false with failed > 0.
func TestDroppedTupleIsReported(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for 2 s")
	}
	drops := map[string]uint64{
		// Host-bound workloads: a tuple id inside the latency phase.
		"region-relay": warmTuples + 1000, "region-keyed-ckpt": warmTuples + 1000, "socket-relay": warmTuples + 1000,
		// BCP: the third camera-path answer of the first window, published
		// long before the burst, so the recovery cannot excuse its loss.
		"paper-bcp-fault": 3,
	}
	for _, w := range workloads {
		res, _, _, err := runOne(w.Name, 43, 2, false, drops[w.Name])
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: dropped a tuple but correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the estimator the acceptance rule is written in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// TestHopsTelescope checks that a complete journey's four hop categories
// add up to its first-to-last span time, which trace.closure_ratio relies on.
func TestHopsTelescope(t *testing.T) {
	// One tuple's journey over two slots, as the program's tracer records it.
	kinds := []obs.SpanKind{
		obs.SpanIngest, obs.SpanDequeue, obs.SpanOp, obs.SpanEmit, obs.SpanSend,
		obs.SpanRecv, obs.SpanDequeue, obs.SpanOp, obs.SpanSink,
	}
	at := []int64{100, 130, 131, 140, 190, 215, 260, 262, 270}
	spans := make([]obs.Span, len(kinds))
	for i, k := range kinds {
		spans[i] = obs.Span{Trace: 257, Seq: uint32(i), Kind: k, At: at[i]}
	}
	traces := tupleTraces(spans)
	if len(traces) != 1 || !traces[0].complete {
		t.Fatalf("traces = %+v", traces)
	}
	var sum int64
	for _, name := range hopNames {
		sum += traces[0].hops[name]
	}
	if want := traces[0].last - traces[0].first; sum != want {
		t.Errorf("hops sum to %d, journey took %d", sum, want)
	}
}
