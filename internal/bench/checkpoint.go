package bench

import (
	"fmt"
	"io"
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// The checkpoint experiment's fixed scenario: a three-slot pipeline whose
// middle operator carries the swept state size, checkpointed under the
// MobiStreams token protocol either with the synchronous full-blob pipeline
// or the incremental-async one (delta chain bounded by the node's
// rebaseEvery).
const (
	ckptPhones       = 6 // 3 active + 3 idle
	ckptSpeedup      = 200
	ckptPeriod       = 20 * time.Second // paces token checkpoints
	ckptWarmup       = 10 * time.Second
	ckptMeasure      = 65 * time.Second // three checkpoints per slot
	ckptSourcePeriod = 500 * time.Millisecond
	ckptWiFiBps      = 20e6 // multi-MB blobs must fit the period
)

// CkptOutcome is one run's result.
type CkptOutcome struct {
	Mode          string  `json:"mode"` // "full" or "incremental"
	StateBytes    int     `json:"state_bytes"`
	Checkpoints   int64   `json:"checkpoints"`
	PauseMeanMs   float64 `json:"pause_mean_ms"`
	PauseMaxMs    float64 `json:"pause_max_ms"`
	BlobBytes     int64   `json:"blob_bytes"`
	FullBytes     int64   `json:"full_state_bytes"`
	DeltaRatio    float64 `json:"delta_ratio"`
	DeltaBlobs    int64   `json:"delta_blobs"`
	FullBlobs     int64   `json:"full_blobs"`
	ThroughputTPS float64 `json:"throughput_tps"`
}

// ckptPipeline is S -> W -> K on three slots; W carries the heavy state.
func ckptPipeline(stateBytes int) (*graph.Graph, operator.Registry, error) {
	var b graph.Builder
	b.AddOperator("S", "n1").AddOperator("W", "n2").AddOperator("K", "n3")
	b.Chain("S", "W", "K")
	clone := func(ctx *operator.Context, t *tuple.Tuple) *tuple.Tuple { return ctx.Clone(t) }
	light := func(id string) operator.Factory {
		return func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(50 * time.Millisecond)
			return m
		}
	}
	reg := operator.Registry{
		"S": light("S"),
		"K": light("K"),
		// W models a windowed/learned-model operator: a small mutable
		// cursor (the Map counter) over stateBytes of state that is static
		// between checkpoints — the shape incremental checkpointing exists
		// for (cf. BCP's counter state).
		"W": func() operator.Operator {
			m := operator.NewMap("W", clone)
			m.CostFn = operator.FixedCost(150 * time.Millisecond)
			m.SizeFn = func() int { return stateBytes }
			return m
		},
	}
	g, err := b.Build()
	return g, reg, err
}

// runCkpt executes one checkpoint-pipeline run to completion.
func runCkpt(seed int64, speedup float64, stateBytes int, fullOnly bool) (CkptOutcome, error) {
	g, reg, err := ckptPipeline(stateBytes)
	if err != nil {
		return CkptOutcome{}, err
	}
	d := deploy.New(speedup, paperCell, controller.Config{CheckpointPeriod: ckptPeriod})
	r, err := d.AddRegion(region.Config{
		ID:         "r1",
		Graph:      g,
		Registry:   reg,
		Scheme:     ft.MSScheme,
		Phones:     ckptPhones,
		WiFi:       simnet.WiFiConfig{BitsPerSecond: ckptWiFiBps, LossProb: paperWiFiLoss, Seed: seed},
		Checkpoint: node.CheckpointConfig{FullOnly: fullOnly},
	})
	if err != nil {
		return CkptOutcome{}, err
	}
	d.Start()
	clk := d.Clock
	gen, _ := ingestBus(d, r, ckptSourcePeriod, seed, func(int64) string { return "S" })

	clk.Sleep(ckptWarmup)
	r.OpenWindow()
	clk.Sleep(ckptMeasure)

	st := r.CkptStats()
	blobBytes, fullBytes := st.Bytes()
	mode := "incremental"
	if fullOnly {
		mode = "full"
	}
	out := CkptOutcome{
		Mode:          mode,
		StateBytes:    stateBytes,
		Checkpoints:   st.Count(),
		PauseMeanMs:   float64(st.PauseMean()) / float64(time.Millisecond),
		PauseMaxMs:    float64(st.PauseMax()) / float64(time.Millisecond),
		BlobBytes:     blobBytes,
		FullBytes:     fullBytes,
		DeltaRatio:    st.DeltaRatio(),
		DeltaBlobs:    st.DeltaBlobs(),
		FullBlobs:     st.FullBlobs(),
		ThroughputTPS: r.Report(clk.Now()).ThroughputTPS,
	}
	gen.Stop()
	d.Stop()
	return out, nil
}

// ckptComparison runs the full-blob baseline and the incremental-async
// pipeline across a state-size sweep under identical seeds.
func ckptComparison(seed int64, speedup float64, sizes []int) ([]CkptOutcome, error) {
	var rows []CkptOutcome
	for _, size := range sizes {
		for _, full := range []bool{true, false} {
			o, err := runCkpt(seed, speedup, size, full)
			if err != nil {
				return nil, fmt.Errorf("checkpoint state=%d full=%v: %w", size, full, err)
			}
			rows = append(rows, o)
		}
	}
	return rows, nil
}

// ckptAtLargest is the mean pause (ms) of each mode at the largest state
// size present in rows; a mode with no row there reads 0.
func ckptAtLargest(rows []CkptOutcome) (full, incr float64) {
	largest := 0
	for _, o := range rows {
		largest = max(largest, o.StateBytes)
	}
	at := func(mode string) float64 {
		o, _ := find(rows, func(o CkptOutcome) bool { return o.StateBytes == largest && o.Mode == mode })
		return o.PauseMeanMs
	}
	return at("full"), at("incremental")
}

// ckptPauseCut is the full/incremental mean-pause ratio at the largest state
// size — the headline speedup (0 when the incremental side is missing).
func ckptPauseCut(rows []CkptOutcome) float64 {
	full, incr := ckptAtLargest(rows)
	if incr <= 0 {
		return 0
	}
	return full / incr
}

// writeCkptTable renders the comparison for humans.
func writeCkptTable(w io.Writer, rows []CkptOutcome) {
	fmt.Fprintln(w, "Checkpoint — synchronous full-blob vs incremental-async delta chains")
	fmt.Fprintf(w, "%-12s %10s %6s %12s %12s %12s %7s %8s\n",
		"mode", "state", "ckpts", "pause mean", "pause max", "blob bytes", "delta", "tput t/s")
	for _, o := range rows {
		fmt.Fprintf(w, "%-12s %9.0fK %6d %10.2fms %10.2fms %12d %7.2f %8.2f\n",
			o.Mode, float64(o.StateBytes)/1024, o.Checkpoints, o.PauseMeanMs, o.PauseMaxMs,
			o.BlobBytes, o.DeltaRatio, o.ThroughputTPS)
	}
	if cut := ckptPauseCut(rows); cut > 0 {
		fmt.Fprintf(w, "pause cut at largest state: %.1fx\n", cut)
	}
}

var checkpointExperiment = experiment("checkpoint",
	"full-blob vs incremental-async checkpoint pipeline",
	func(p Params) ([]CkptOutcome, error) { // state sizes 64 KB to 4 MB
		return ckptComparison(p.Seed, ckptSpeedup, []int{64 << 10, 256 << 10, 1 << 20, 4 << 20})
	},
	writeCkptTable,
	"checkpoint results carry no incremental pause sample",
	// The incremental pipeline's mean checkpoint pause at the largest state
	// size.
	gateRow{Key: "incr_pause_mean_ms_largest", Grace: 5,
		What: "checkpoint pause", Format: "%.2f ms", Fail: "checkpoint pause regressed: %s > %s",
		Pick: pick(func(rows []CkptOutcome) (float64, float64, bool) {
			_, incr := ckptAtLargest(rows)
			return incr, 0, incr > 0
		})},
)
