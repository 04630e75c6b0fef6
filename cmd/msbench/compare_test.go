package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile drops one JSON fixture into the test's temp dir.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gateFixtures writes a full healthy result set matching the committed
// baseline shape, returning the ten paths runCompare takes. Callers
// overwrite individual files to construct failure cases.
func gateFixtures(t *testing.T, dir string) (baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place string) {
	t.Helper()
	baseline = writeFile(t, dir, "baseline.json", `{
		"max_scheduler_tuple_loss": 0,
		"incr_pause_mean_ms_largest": 10.0,
		"scale_tps_largest": 300.0,
		"emit_allocs_per_op": 0.0,
		"wire_encode_allocs_per_op": 0.0,
		"obs_overhead_pct": 5.0,
		"trace_allocs_per_op": 0.0,
		"elastic_p99_hotspot_ms": 650.0,
		"federation_ctrl_bytes_per_phone_largest": 560.0,
		"placement_loss_vs_reactive": 0.5
	}`)
	churn = writeFile(t, dir, "churn.json", `{"rows": [
		{"mode": "scheduler", "tuples_lost": 0},
		{"mode": "reactive", "tuples_lost": 50}
	]}`)
	ckpt = writeFile(t, dir, "ckpt.json", `{"rows": [
		{"mode": "incremental", "state_bytes": 1048576, "pause_mean_ms": 9.5},
		{"mode": "full", "state_bytes": 1048576, "pause_mean_ms": 40.0}
	]}`)
	scale = writeFile(t, dir, "scale.json", `{"rows": [
		{"phones": 64, "tuples_per_sec": 310.0}
	]}`)
	emit = writeFile(t, dir, "emit.json", `{"rows": [
		{"mode": "context", "allocs_per_op": 0.0, "ns_per_op": 100},
		{"mode": "legacy", "allocs_per_op": 2.0, "ns_per_op": 150}
	]}`)
	wire = writeFile(t, dir, "wire.json", `{"rows": [
		{"op": "encode_stream", "allocs_per_op": 0.0, "ns_per_op": 50, "frame_bytes": 80},
		{"op": "encode_batch16", "allocs_per_op": 0.0, "ns_per_op": 700, "frame_bytes": 1200},
		{"op": "decode_stream", "allocs_per_op": 2.0, "ns_per_op": 90, "frame_bytes": 80}
	]}`)
	obs = writeFile(t, dir, "obs.json", `{
		"iters": 200000,
		"off_ns_per_op": 100.0,
		"hist_ns_per_op": 106.0,
		"trace_ns_per_op": 240.0,
		"obs_overhead_pct": 6.0,
		"trace_allocs_per_op": 0.0,
		"traced_allocs_per_op": 1.2,
		"spans": 16384
	}`)
	elastic = writeFile(t, dir, "elastic.json", `{"rows": [
		{"mode": "static", "p99_hotspot_ms": 4500.0, "degrade_factor": 13.0, "duplicates": 0},
		{"mode": "elastic", "p99_hotspot_ms": 640.0, "degrade_factor": 1.5, "splits": 2, "duplicates": 0}
	]}`)
	fed = writeFile(t, dir, "federation.json", `{"rows": [
		{"mode": "gossip", "regions": 4, "ctrl_bytes_per_phone": 380.0, "xregion_dup_outputs": 0},
		{"mode": "gossip", "regions": 64, "ctrl_bytes_per_phone": 555.0, "xregion_dup_outputs": 0},
		{"mode": "unicast", "regions": 64, "ctrl_bytes_per_phone": 756.0, "xregion_dup_outputs": 0}
	]}`)
	place = writeFile(t, dir, "placement.json", `{"rows": [
		{"mode": "reactive", "tuples_lost": 8, "cross_channel_share": 0.55, "duplicates": 0},
		{"mode": "planner", "tuples_lost": 2, "cross_channel_share": 0.12, "duplicates": 0}
	]}`)
	return
}

func TestComparePasses(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	var out bytes.Buffer
	if err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out); err != nil {
		t.Fatalf("healthy results failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("missing pass banner:\n%s", out.String())
	}
}

// TestCompareFailsOnWireEncodeAlloc is the gate's verified fail path: a
// single allocation per encoded frame — the smallest possible regression —
// must fail the build, decode-side allocations must not.
func TestCompareFailsOnWireEncodeAlloc(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "wire.json", `{"rows": [
		{"op": "encode_stream", "allocs_per_op": 1.0, "ns_per_op": 55, "frame_bytes": 80},
		{"op": "decode_stream", "allocs_per_op": 2.0, "ns_per_op": 90, "frame_bytes": 80}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("1.0 wire-encode allocs/op passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wire-encode allocs/op regressed") {
		t.Fatalf("failure not attributed to the wire encode path:\n%s", out.String())
	}
}

// TestCompareFailsOnMissingWireRows: results without encode rows must not
// silently pass.
func TestCompareFailsOnMissingWireRows(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "wire.json", `{"rows": [
		{"op": "decode_stream", "allocs_per_op": 2.0, "ns_per_op": 90, "frame_bytes": 80}
	]}`)
	var out bytes.Buffer
	if err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out); err == nil {
		t.Fatalf("wire results without encode rows passed the gate:\n%s", out.String())
	}
}

// TestCompareFailsOnEmitAlloc keeps the emit pin honest alongside the new
// wire pin.
func TestCompareFailsOnEmitAlloc(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "emit.json", `{"rows": [
		{"mode": "context", "allocs_per_op": 1.0, "ns_per_op": 120}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("1.0 emit allocs/op passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "emit-path allocs/op regressed") {
		t.Fatalf("failure not attributed to the emit path:\n%s", out.String())
	}
}

// TestCompareFailsOnTraceAlloc is the observability gate's verified fail
// path: one allocation per tuple on the sampling-off instrumented path —
// the smallest possible regression — must fail the build.
func TestCompareFailsOnTraceAlloc(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "obs.json", `{
		"iters": 200000,
		"off_ns_per_op": 100.0,
		"hist_ns_per_op": 106.0,
		"obs_overhead_pct": 6.0,
		"trace_allocs_per_op": 1.0
	}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("1.0 traced-path allocs/op passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "traced-path allocs/op regressed") {
		t.Fatalf("failure not attributed to the traced path:\n%s", out.String())
	}
}

// TestCompareFailsOnObsOverhead: histogram overhead blowing past the
// baseline plus grace must fail, attributed to the obs gate.
func TestCompareFailsOnObsOverhead(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "obs.json", `{
		"iters": 200000,
		"off_ns_per_op": 100.0,
		"hist_ns_per_op": 180.0,
		"obs_overhead_pct": 80.0,
		"trace_allocs_per_op": 0.0
	}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("80%% obs overhead passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "obs overhead regressed") {
		t.Fatalf("failure not attributed to obs overhead:\n%s", out.String())
	}
}

// TestCompareFailsOnEmptyObsResults: an empty obs report must not
// silently pass the pinned-allocation gate.
func TestCompareFailsOnEmptyObsResults(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "obs.json", `{}`)
	var out bytes.Buffer
	if err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out); err == nil {
		t.Fatalf("empty obs results passed the gate:\n%s", out.String())
	}
}

// TestCompareFailsOnElasticP99Regression is the elastic gate's verified
// fail path: an elastic-on hotspot p99 past baseline×1.2 plus grace means
// the split/merge policy stopped absorbing the hotspot.
func TestCompareFailsOnElasticP99Regression(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "elastic.json", `{"rows": [
		{"mode": "static", "p99_hotspot_ms": 4500.0, "duplicates": 0},
		{"mode": "elastic", "p99_hotspot_ms": 3200.0, "splits": 0, "duplicates": 0}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("3200 ms elastic hotspot p99 passed the gate against a 650 ms baseline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "elastic hotspot p99 regressed") {
		t.Fatalf("failure not attributed to the elastic gate:\n%s", out.String())
	}
}

// TestCompareFailsOnElasticDuplicates: exactly-once across live splits is
// gated at zero with no grace — one duplicate output fails the build even
// when the latency numbers are healthy.
func TestCompareFailsOnElasticDuplicates(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "elastic.json", `{"rows": [
		{"mode": "static", "p99_hotspot_ms": 4500.0, "duplicates": 0},
		{"mode": "elastic", "p99_hotspot_ms": 640.0, "splits": 2, "duplicates": 1}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("a duplicate output passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "duplicate outputs") {
		t.Fatalf("failure not attributed to the exactly-once gate:\n%s", out.String())
	}
}

// TestCompareFailsOnMissingElasticRow: results without an elastic-mode row
// must not silently pass.
func TestCompareFailsOnMissingElasticRow(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "elastic.json", `{"rows": [
		{"mode": "static", "p99_hotspot_ms": 4500.0, "duplicates": 0}
	]}`)
	var out bytes.Buffer
	if err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out); err == nil {
		t.Fatalf("elastic results without an elastic-mode row passed the gate:\n%s", out.String())
	}
}

// TestCompareFailsOnFederationFanoutRegression is the federation gate's
// verified fail path: busiest-node control bytes per phone at the largest
// swept region count blowing past baseline×1.2 plus grace means the
// gossip overlay's sub-linear fan-out regressed.
func TestCompareFailsOnFederationFanoutRegression(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "federation.json", `{"rows": [
		{"mode": "gossip", "regions": 4, "ctrl_bytes_per_phone": 380.0, "xregion_dup_outputs": 0},
		{"mode": "gossip", "regions": 64, "ctrl_bytes_per_phone": 1400.0, "xregion_dup_outputs": 0}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("1400 B/phone passed the gate against a 560 B/phone baseline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "federation ctrl bytes/phone regressed") {
		t.Fatalf("failure not attributed to the federation gate:\n%s", out.String())
	}
}

// TestCompareFailsOnFederationDuplicates: cross-region exactly-once is
// gated at zero with no grace — one duplicate output at any sweep point
// fails the build even when the byte counts are healthy.
func TestCompareFailsOnFederationDuplicates(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "federation.json", `{"rows": [
		{"mode": "gossip", "regions": 4, "ctrl_bytes_per_phone": 380.0, "xregion_dup_outputs": 1},
		{"mode": "gossip", "regions": 64, "ctrl_bytes_per_phone": 555.0, "xregion_dup_outputs": 0}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("a duplicate cross-region output passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "duplicate cross-region outputs") {
		t.Fatalf("failure not attributed to the federation exactly-once gate:\n%s", out.String())
	}
}

// TestCompareFailsOnMissingFederationRows: results without gossip-mode
// sweep rows must not silently pass.
func TestCompareFailsOnMissingFederationRows(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "federation.json", `{"rows": [
		{"mode": "unicast", "regions": 64, "ctrl_bytes_per_phone": 756.0}
	]}`)
	var out bytes.Buffer
	if err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out); err == nil {
		t.Fatalf("federation results without gossip rows passed the gate:\n%s", out.String())
	}
}

// TestCompareFailsOnPlacementLossRegression is the placement gate's verified
// fail path: the planner arm losing far more tuples than the reactive baseline
// (ratio past baseline×1.2 plus grace) means pack-to-empty planning stopped
// paying for itself under churn.
func TestCompareFailsOnPlacementLossRegression(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "placement.json", `{"rows": [
		{"mode": "reactive", "tuples_lost": 8, "cross_channel_share": 0.55, "duplicates": 0},
		{"mode": "planner", "tuples_lost": 40, "cross_channel_share": 0.12, "duplicates": 0}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("a 5x loss ratio passed the gate against a 0.5 baseline:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "placement loss vs reactive regressed") {
		t.Fatalf("failure not attributed to the placement loss gate:\n%s", out.String())
	}
}

// TestCompareFailsOnPlacementCrossChannelClaim: the planner's structural
// claim — less cross-channel airtime than reactive — is gated with no grace.
// The moment repacking stops consolidating pipelines onto single channels,
// the share meets or exceeds reactive's and the build fails.
func TestCompareFailsOnPlacementCrossChannelClaim(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "placement.json", `{"rows": [
		{"mode": "reactive", "tuples_lost": 8, "cross_channel_share": 0.55, "duplicates": 0},
		{"mode": "planner", "tuples_lost": 2, "cross_channel_share": 0.55, "duplicates": 0}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("planner matching reactive's cross-channel share passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no longer beats reactive on cross-channel share") {
		t.Fatalf("failure not attributed to the cross-channel gate:\n%s", out.String())
	}
}

// TestCompareFailsOnPlacementDuplicates: plan execution rides the same
// exactly-once migration path as the scheduler, so the planner arm is gated
// at zero duplicates with no grace.
func TestCompareFailsOnPlacementDuplicates(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "placement.json", `{"rows": [
		{"mode": "reactive", "tuples_lost": 8, "cross_channel_share": 0.55, "duplicates": 0},
		{"mode": "planner", "tuples_lost": 2, "cross_channel_share": 0.12, "duplicates": 1}
	]}`)
	var out bytes.Buffer
	err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out)
	if err == nil {
		t.Fatalf("a duplicate output in the planner arm passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "duplicate outputs") {
		t.Fatalf("failure not attributed to the placement exactly-once gate:\n%s", out.String())
	}
}

// TestCompareFailsOnMissingPlacementRows: results without both a reactive and
// a planner row must not silently pass.
func TestCompareFailsOnMissingPlacementRows(t *testing.T) {
	dir := t.TempDir()
	baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place := gateFixtures(t, dir)
	writeFile(t, dir, "placement.json", `{"rows": [
		{"mode": "reactive", "tuples_lost": 8, "cross_channel_share": 0.55, "duplicates": 0}
	]}`)
	var out bytes.Buffer
	if err := runCompare(baseline, churn, ckpt, scale, emit, wire, obs, elastic, fed, place, &out); err == nil {
		t.Fatalf("placement results without a planner row passed the gate:\n%s", out.String())
	}
}
