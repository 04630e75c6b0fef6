package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"mobistreams/internal/bench"
)

// Baseline is the committed reference the regression gate compares fresh
// experiment results against (BENCH_baseline.json at the repo root).
// Regenerate it with:
//
//	go run ./cmd/msbench -exp churn -seed 5 -churnout BENCH_scheduler.json
//	go run ./cmd/msbench -exp checkpoint -seed 5 -ckptout BENCH_checkpoint.json
//	go run ./cmd/msbench -exp scale -seed 5 -scaleout BENCH_scale.json
//	go run ./cmd/msbench -exp emit -emitout BENCH_emit.json
//	go run ./cmd/msbench -exp wire -wireout BENCH_wire.json
//	go run ./cmd/msbench -exp obs -obsout BENCH_obs.json
//	go run ./cmd/msbench -exp elastic -seed 5 -elasticout BENCH_elastic.json
//	go run ./cmd/msbench -exp federation -seed 5 -fedout BENCH_federation.json
//	go run ./cmd/msbench -exp placement -seed 5 -placeout BENCH_placement.json
//	then copy the summary numbers below from those files.
type Baseline struct {
	Comment string `json:"comment"`
	// MaxSchedulerTupleLoss is the worst tuples_lost across the churn
	// experiment's scheduler-on rows.
	MaxSchedulerTupleLoss int64 `json:"max_scheduler_tuple_loss"`
	// IncrPauseMeanMsLargest is the incremental pipeline's mean
	// checkpoint pause (ms) at the largest state size.
	IncrPauseMeanMsLargest float64 `json:"incr_pause_mean_ms_largest"`
	// ScaleTPSLargest is the overhauled data plane's best tuples/sec at
	// the largest swept region size (best channel count).
	// Saturated runs are airtime-bound, so the number is stable across
	// machines.
	ScaleTPSLargest float64 `json:"scale_tps_largest"`
	// EmitAllocsPerOp is the emit-context contract's steady-state
	// allocations per tuple through the compiled pipeline — 0 by design,
	// and machine-independent, so the gate pins it hard.
	EmitAllocsPerOp float64 `json:"emit_allocs_per_op"`
	// WireEncodeAllocsPerOp is the wire codec's steady-state allocations
	// per encoded frame into a presized buffer — 0 by design (append-only
	// encoding), machine-independent, pinned hard like the emit path.
	WireEncodeAllocsPerOp float64 `json:"wire_encode_allocs_per_op"`
	// ObsOverheadPct is the always-on histogram tax on the emit hot path:
	// (instrumented - uninstrumented) / uninstrumented * 100 with sampling
	// off. Timing-derived, so the gate allows a generous absolute grace.
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
	// TraceAllocsPerOp is the emit path's allocations per tuple with the
	// obs registry attached and sampling off — the zero-allocs invariant
	// with tracing compiled in. 0 by design, machine-independent, pinned.
	TraceAllocsPerOp float64 `json:"trace_allocs_per_op"`
	// ElasticP99HotspotMs is the elastic-on run's worst hotspot-phase p99
	// (ms) from the elastic keyed-parallelism experiment: the number the
	// split/merge policy exists to hold down. The static run's degradation
	// is the experiment's headline but is deliberately unbounded here — it
	// measures the problem, not the solution.
	ElasticP99HotspotMs float64 `json:"elastic_p99_hotspot_ms"`
	// FederationCtrlBytesPerPhoneLargest is the gossip overlay's
	// busiest-node control bytes per phone at the largest swept region
	// count — the sub-linear fan-out claim's number. Fully deterministic
	// (seeded simulation), so the grace term is small.
	FederationCtrlBytesPerPhoneLargest float64 `json:"federation_ctrl_bytes_per_phone_largest"`
	// PlacementLossVsReactive is the planner arm's tuple loss divided by the
	// reactive arm's (floored at one tuple) in the placement experiment: the
	// planner-beats-reactive headline as a ratio, so the gate tracks the
	// relative claim rather than an absolute count that moves with the
	// churn schedule. The gate additionally requires the planner arm to
	// keep its cross-channel airtime share below the reactive arm's — that
	// claim is structural (repacking removes cross-cell hops), so it gets
	// no regression factor at all.
	PlacementLossVsReactive float64 `json:"placement_loss_vs_reactive"`
}

// regressionFactor is the gate's threshold: a metric more than 20% worse
// than baseline fails the build. Small absolute grace terms keep the gate
// from tripping on simulation noise around tiny baselines.
const (
	regressionFactor = 1.20
	lossGraceTuples  = 3
	pauseGraceMs     = 5.0
	scaleGraceTPS    = 5.0
	// emitGraceAllocs absorbs measurement noise from unrelated background
	// allocation (GC bookkeeping) without letting a real per-tuple
	// allocation — the smallest possible regression is 1.0 — pass.
	emitGraceAllocs = 0.1
	// wireGraceAllocs plays the same role for the wire codec's encode
	// rows: background noise passes, one real allocation per frame fails.
	wireGraceAllocs = 0.1
	// obsGracePct absorbs scheduler jitter in the overhead measurement —
	// the two timed loops run back to back on shared CI machines, so the
	// percentage is noisy even when the instrumentation cost is flat. It
	// stacks on the multiplicative factor: the measured percentage is a
	// ratio of two timings whose machine-to-machine spread (clock-read cost
	// vs CPU speed) is wider than either timing alone.
	obsGracePct = 15.0
	// traceGraceAllocs mirrors emitGraceAllocs for the sampling-off
	// instrumented path: noise passes, a real per-tuple allocation fails.
	traceGraceAllocs = 0.1
	// elasticGraceMs absorbs scaled-clock jitter in the elastic run's
	// hotspot p99: the tail is a handful of tuples queued behind a split's
	// pause window, so shared-machine scheduling moves it tens of ms
	// between runs even when the policy behaves identically.
	elasticGraceMs = 100.0
	// fedGraceBytesPerPhone absorbs small shifts in gossip sampling when
	// the sweep's seed-adjacent parameters move (peer-set ordering, digest
	// window phase). The byte counts themselves are deterministic, so the
	// grace only needs to cover intentional small retunes, not noise.
	fedGraceBytesPerPhone = 20.0
	// placementGraceRatio absorbs churn-schedule sensitivity in the
	// loss-vs-reactive ratio: both arms run the same seed, but a migration
	// landing one tick earlier can shift a single lost tuple between arms,
	// which moves the ratio a lot when the absolute counts are small. At
	// the committed baseline (both arms lose zero; ratio 0.0) the grace is
	// what tolerates one stray planner-arm tuple against a clean reactive
	// run, so it must stay above 1.0.
	placementGraceRatio = 1.5
)

func runCompare(baselinePath, churnPath, ckptPath, scalePath, emitPath, wirePath, obsPath, elasticPath, fedPath, placePath string, w io.Writer) error {
	var base Baseline
	if err := readJSON(baselinePath, &base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var churn bench.ChurnReport
	if err := readJSON(churnPath, &churn); err != nil {
		return fmt.Errorf("churn results: %w", err)
	}
	var ckpt bench.CkptReport
	if err := readJSON(ckptPath, &ckpt); err != nil {
		return fmt.Errorf("checkpoint results: %w", err)
	}
	var scale bench.ScaleReport
	if err := readJSON(scalePath, &scale); err != nil {
		return fmt.Errorf("scale results: %w", err)
	}
	var emit bench.EmitReport
	if err := readJSON(emitPath, &emit); err != nil {
		return fmt.Errorf("emit results: %w", err)
	}
	var wireRep bench.WireReport
	if err := readJSON(wirePath, &wireRep); err != nil {
		return fmt.Errorf("wire results: %w", err)
	}
	var obsRep bench.ObsReport
	if err := readJSON(obsPath, &obsRep); err != nil {
		return fmt.Errorf("obs results: %w", err)
	}
	var elasticRep bench.ElasticReport
	if err := readJSON(elasticPath, &elasticRep); err != nil {
		return fmt.Errorf("elastic results: %w", err)
	}
	var fedRep bench.FederationReport
	if err := readJSON(fedPath, &fedRep); err != nil {
		return fmt.Errorf("federation results: %w", err)
	}
	var placeRep bench.PlacementReport
	if err := readJSON(placePath, &placeRep); err != nil {
		return fmt.Errorf("placement results: %w", err)
	}

	var worstLoss int64
	for _, row := range churn.Rows {
		if row.Mode == "scheduler" && row.Lost > worstLoss {
			worstLoss = row.Lost
		}
	}
	var incrPause float64
	largest := 0
	for _, row := range ckpt.Rows {
		if row.StateBytes > largest {
			largest = row.StateBytes
		}
	}
	for _, row := range ckpt.Rows {
		if row.StateBytes == largest && row.Mode == "incremental" {
			incrPause = row.PauseMeanMs
		}
	}

	// Largest swept region size, best throughput across channel
	// counts: a >20% drop there means the data-plane overhaul regressed.
	largestPhones := 0
	for _, row := range scale.Rows {
		if row.Phones > largestPhones {
			largestPhones = row.Phones
		}
	}
	var scaleTPS float64
	for _, row := range scale.Rows {
		if row.Phones == largestPhones && row.TPS > scaleTPS {
			scaleTPS = row.TPS
		}
	}

	emitAllocs, emitSeen := -1.0, false
	for _, row := range emit.Rows {
		if row.Mode == "context" {
			emitAllocs, emitSeen = row.AllocsPerOp, true
		}
	}

	// Worst encode row across frame kinds: any per-frame allocation on
	// the encode path breaks the zero-alloc wire-format claim.
	wireAllocs, wireSeen := -1.0, false
	for _, row := range wireRep.Rows {
		if strings.HasPrefix(row.Op, "encode_") {
			wireSeen = true
			if row.AllocsPerOp > wireAllocs {
				wireAllocs = row.AllocsPerOp
			}
		}
	}

	lossLimit := int64(float64(base.MaxSchedulerTupleLoss)*regressionFactor) + lossGraceTuples
	pauseLimit := base.IncrPauseMeanMsLargest*regressionFactor + pauseGraceMs
	scaleLimit := base.ScaleTPSLargest/regressionFactor - scaleGraceTPS
	emitLimit := base.EmitAllocsPerOp + emitGraceAllocs
	wireLimit := base.WireEncodeAllocsPerOp + wireGraceAllocs
	fmt.Fprintf(w, "gate: scheduler tuple loss %d (baseline %d, limit %d)\n",
		worstLoss, base.MaxSchedulerTupleLoss, lossLimit)
	fmt.Fprintf(w, "gate: incremental pause at %d KB state %.2f ms (baseline %.2f ms, limit %.2f ms)\n",
		largest/1024, incrPause, base.IncrPauseMeanMsLargest, pauseLimit)
	fmt.Fprintf(w, "gate: scale throughput at %d phones %.1f tuples/s (baseline %.1f, limit %.1f)\n",
		largestPhones, scaleTPS, base.ScaleTPSLargest, scaleLimit)
	fmt.Fprintf(w, "gate: emit-path allocs/op %.3f (baseline %.3f, limit %.3f)\n",
		emitAllocs, base.EmitAllocsPerOp, emitLimit)
	fmt.Fprintf(w, "gate: wire-encode allocs/op %.3f (baseline %.3f, limit %.3f)\n",
		wireAllocs, base.WireEncodeAllocsPerOp, wireLimit)
	obsLimit := base.ObsOverheadPct*regressionFactor + obsGracePct
	traceLimit := base.TraceAllocsPerOp + traceGraceAllocs
	fmt.Fprintf(w, "gate: obs overhead %.1f%% (baseline %.1f%%, limit %.1f%%)\n",
		obsRep.ObsOverheadPct, base.ObsOverheadPct, obsLimit)
	fmt.Fprintf(w, "gate: traced-path allocs/op %.3f (baseline %.3f, limit %.3f)\n",
		obsRep.TraceAllocsPerOp, base.TraceAllocsPerOp, traceLimit)

	// Elastic-on hotspot p99, plus the run's exactly-once invariant: a
	// duplicate output across a live split/merge is a protocol bug, gated
	// at zero with no grace.
	elasticP99, elasticDups := -1.0, int64(0)
	for _, row := range elasticRep.Rows {
		if row.Mode == "elastic" {
			elasticP99 = row.P99HotMs
			elasticDups = row.Duplicates
		}
	}
	elasticLimit := base.ElasticP99HotspotMs*regressionFactor + elasticGraceMs
	fmt.Fprintf(w, "gate: elastic hotspot p99 %.1f ms (baseline %.1f ms, limit %.1f ms)\n",
		elasticP99, base.ElasticP99HotspotMs, elasticLimit)

	// Federation: gossip-mode busiest-node control bytes per phone at the
	// largest swept region count, plus the sweep's exactly-once invariant
	// — a duplicate cross-region output is a dedup bug, gated at zero
	// with no grace.
	fedBytesPerPhone, fedDups := -1.0, uint64(0)
	fedLargest := 0
	for _, row := range fedRep.Rows {
		if row.Mode == "gossip" {
			if row.Regions > fedLargest {
				fedLargest = row.Regions
				fedBytesPerPhone = row.CtrlBytesPerPhone
			}
			fedDups += row.XRegionDupOutputs
		}
	}
	fedLimit := base.FederationCtrlBytesPerPhoneLargest*regressionFactor + fedGraceBytesPerPhone
	fmt.Fprintf(w, "gate: federation ctrl bytes/phone at %d regions %.1f (baseline %.1f, limit %.1f)\n",
		fedLargest, fedBytesPerPhone, base.FederationCtrlBytesPerPhoneLargest, fedLimit)

	// Placement: the planner's tuple loss relative to the reactive baseline
	// arm, plus the structural cross-channel claim and the run's
	// exactly-once invariant (duplicates gated at zero, no grace).
	var reactiveRow, plannerRow *bench.PlacementOutcome
	for i := range placeRep.Rows {
		switch placeRep.Rows[i].Mode {
		case "reactive":
			reactiveRow = &placeRep.Rows[i]
		case "planner":
			plannerRow = &placeRep.Rows[i]
		}
	}
	placeRatio, placeSeen := -1.0, reactiveRow != nil && plannerRow != nil
	if placeSeen {
		reactiveLost := reactiveRow.Lost
		if reactiveLost < 1 {
			reactiveLost = 1
		}
		placeRatio = float64(plannerRow.Lost) / float64(reactiveLost)
	}
	placeLimit := base.PlacementLossVsReactive*regressionFactor + placementGraceRatio
	fmt.Fprintf(w, "gate: placement loss vs reactive %.2f (baseline %.2f, limit %.2f)\n",
		placeRatio, base.PlacementLossVsReactive, placeLimit)
	if placeSeen {
		fmt.Fprintf(w, "gate: placement cross-channel share planner %.3f vs reactive %.3f\n",
			plannerRow.CrossChannelShare, reactiveRow.CrossChannelShare)
	}

	var failures []string
	if !emitSeen {
		failures = append(failures, "emit results carry no context-contract row")
	} else if emitAllocs > emitLimit {
		failures = append(failures, fmt.Sprintf("emit-path allocs/op regressed: %.3f > %.3f", emitAllocs, emitLimit))
	}
	if !wireSeen {
		failures = append(failures, "wire results carry no encode rows")
	} else if wireAllocs > wireLimit {
		failures = append(failures, fmt.Sprintf("wire-encode allocs/op regressed: %.3f > %.3f", wireAllocs, wireLimit))
	}
	if worstLoss > lossLimit {
		failures = append(failures, fmt.Sprintf("tuple loss regressed: %d > %d", worstLoss, lossLimit))
	}
	if incrPause > pauseLimit {
		failures = append(failures, fmt.Sprintf("checkpoint pause regressed: %.2f ms > %.2f ms", incrPause, pauseLimit))
	}
	if incrPause <= 0 {
		failures = append(failures, "checkpoint results carry no incremental pause sample")
	}
	if scaleTPS < scaleLimit {
		failures = append(failures, fmt.Sprintf("scale throughput regressed: %.1f < %.1f tuples/s", scaleTPS, scaleLimit))
	}
	if scaleTPS <= 0 {
		failures = append(failures, "scale results carry no throughput sample")
	}
	if obsRep.Iters <= 0 {
		failures = append(failures, "obs results carry no overhead sample")
	} else {
		if obsRep.ObsOverheadPct > obsLimit {
			failures = append(failures, fmt.Sprintf("obs overhead regressed: %.1f%% > %.1f%%", obsRep.ObsOverheadPct, obsLimit))
		}
		if obsRep.TraceAllocsPerOp > traceLimit {
			failures = append(failures, fmt.Sprintf("traced-path allocs/op regressed: %.3f > %.3f", obsRep.TraceAllocsPerOp, traceLimit))
		}
	}
	if elasticP99 <= 0 {
		failures = append(failures, "elastic results carry no elastic-mode hotspot sample")
	} else if elasticP99 > elasticLimit {
		failures = append(failures, fmt.Sprintf("elastic hotspot p99 regressed: %.1f ms > %.1f ms", elasticP99, elasticLimit))
	}
	if elasticDups != 0 {
		failures = append(failures, fmt.Sprintf("elastic run published %d duplicate outputs", elasticDups))
	}
	if fedBytesPerPhone <= 0 {
		failures = append(failures, "federation results carry no gossip-mode sweep rows")
	} else if fedBytesPerPhone > fedLimit {
		failures = append(failures, fmt.Sprintf("federation ctrl bytes/phone regressed: %.1f > %.1f", fedBytesPerPhone, fedLimit))
	}
	if fedDups != 0 {
		failures = append(failures, fmt.Sprintf("federation run published %d duplicate cross-region outputs", fedDups))
	}
	if !placeSeen {
		failures = append(failures, "placement results carry no reactive+planner row pair")
	} else {
		if placeRatio > placeLimit {
			failures = append(failures, fmt.Sprintf("placement loss vs reactive regressed: %.2f > %.2f", placeRatio, placeLimit))
		}
		if plannerRow.CrossChannelShare >= reactiveRow.CrossChannelShare {
			failures = append(failures, fmt.Sprintf("placement planner no longer beats reactive on cross-channel share: %.3f >= %.3f",
				plannerRow.CrossChannelShare, reactiveRow.CrossChannelShare))
		}
		if plannerRow.Duplicates != 0 {
			failures = append(failures, fmt.Sprintf("placement planner run published %d duplicate outputs", plannerRow.Duplicates))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(w, "FAIL %s\n", f)
		}
		return fmt.Errorf("%d metric(s) regressed >20%% vs %s", len(failures), baselinePath)
	}
	fmt.Fprintln(w, "gate: no regressions")
	return nil
}

func readJSON(path string, v interface{}) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewDecoder(f).Decode(v)
}
