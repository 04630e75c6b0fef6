package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/metrics"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// The scale sweep's fixed scenario: an aggregation tree sized to the phone
// count (leaf source slots → fan-in-8 aggregator slots → one sink slot, no
// idles — the data plane is under test), every leaf ingesting telemetry
// tuples at a fixed period.
const (
	scaleTupleBytes = 1024
	// scaleSourcePeriod is each leaf's ingest interval, i.e. 8 tuples/s per
	// leaf: the aggregate offered load exceeds one channel's capacity from
	// ~32 phones on, which is the wall the sweep exposes.
	scaleSourcePeriod = 125 * time.Millisecond
	scaleWarmup       = 3 * time.Second
	scaleMeasure      = 20 * time.Second
	scaleSpeedup      = 200
	// scaleFrameOverhead is the per-send framing cost in byte-equivalents,
	// as in the ingress bench.
	scaleFrameOverhead = 600
)

// scaleFanIn is the aggregation tree's fan-in: eight leaf slots feed one
// aggregator slot.
const scaleFanIn = 8

// scaleLeaves solves the tree shape: the largest leaf count whose tree
// (leaves + aggregators + sink) fits the phone budget.
func scaleLeaves(phones int) int {
	leaves := 1
	for l := 1; l <= phones; l++ {
		aggs := (l + scaleFanIn - 1) / scaleFanIn
		if l+aggs+1 <= phones {
			leaves = l
		}
	}
	return leaves
}

// scaleGraph builds the aggregation tree for a phone budget and returns it
// with its registry and leaf source operator IDs.
func scaleGraph(phones int) (*graph.Graph, operator.Registry, []string, error) {
	leaves := scaleLeaves(phones)
	aggs := (leaves + scaleFanIn - 1) / scaleFanIn
	var b graph.Builder
	reg := operator.Registry{}
	passthrough := func(id string) operator.Factory {
		return func() operator.Operator { return operator.NewPassthrough(id) }
	}
	var srcOps []string
	for i := 0; i < leaves; i++ {
		src := fmt.Sprintf("S%d", i+1)
		b.AddOperator(src, fmt.Sprintf("w%d", i+1))
		reg[src] = passthrough(src)
		srcOps = append(srcOps, src)
	}
	for j := 0; j < aggs; j++ {
		agg := fmt.Sprintf("A%d", j+1)
		b.AddOperator(agg, fmt.Sprintf("a%d", j+1))
		reg[agg] = passthrough(agg)
	}
	b.AddOperator("K", "k0")
	reg["K"] = passthrough("K")
	for i := 0; i < leaves; i++ {
		b.Connect(fmt.Sprintf("S%d", i+1), fmt.Sprintf("A%d", i/scaleFanIn+1))
	}
	for j := 0; j < aggs; j++ {
		b.Connect(fmt.Sprintf("A%d", j+1), "K")
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return g, reg, srcOps, nil
}

// scaleChannelPlan assigns the tree's phones to WiFi channels the way a
// deployment plans AP association: each aggregator and its leaf
// neighbourhood share one cell (their fan-in stays in-cell, charged once),
// neighbourhoods round-robin over all but the last channel, and the sink
// gets the last channel to itself so the region-wide fan-in hop does not
// contend with leaf traffic. With one channel everything maps to it, which
// is the legacy single medium.
//
// The phone-to-slot mapping mirrors region.New's deterministic layout:
// slots in sorted order onto phones regionID/p1..pN.
func scaleChannelPlan(regionID string, g *graph.Graph, channels int) func(simnet.NodeID) int {
	if channels <= 1 {
		return nil
	}
	groupChannels := channels - 1
	byPhone := make(map[simnet.NodeID]int)
	for i, slot := range g.Slots() {
		id := simnet.NodeID(fmt.Sprintf("%s/p%d", regionID, i+1))
		var ch int
		var n int
		switch {
		case len(slot) > 0 && slot[0] == 'w' && scanIndex(slot[1:], &n):
			ch = ((n - 1) / scaleFanIn) % groupChannels
		case len(slot) > 0 && slot[0] == 'a' && scanIndex(slot[1:], &n):
			ch = (n - 1) % groupChannels
		default: // sink slot k0
			ch = channels - 1
		}
		byPhone[id] = ch
	}
	return func(id simnet.NodeID) int {
		if ch, ok := byPhone[id]; ok {
			return ch
		}
		return -1
	}
}

// scanIndex parses a positive decimal suffix.
func scanIndex(s string, out *int) bool {
	if s == "" {
		return false
	}
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
		n = n*10 + int(r-'0')
	}
	*out = n
	return n > 0
}

// ScaleRow is one scale run's result.
type ScaleRow struct {
	Phones   int   `json:"phones"`
	Leaves   int   `json:"leaves"`
	Channels int   `json:"channels"`
	Ingested int64 `json:"ingested"`
	// Delivered counts sink outputs landing inside the measurement
	// window; TPS divides it by the window. Warmup-admitted tuples still
	// draining through the tree can nudge Delivered slightly above
	// Ingested on unsaturated rows; saturated rows (the ones the gate
	// reads) are airtime-capacity-bound either way.
	Delivered      int64   `json:"delivered"`
	TPS            float64 `json:"tuples_per_sec"`
	P99Ms          float64 `json:"p99_latency_ms"`
	AllocsPerTuple float64 `json:"allocs_per_tuple"`
	WallMs         float64 `json:"wall_ms"`
}

// runScale executes one cell of the sweep to completion.
func runScale(seed int64, phones, channels int, measure time.Duration) (ScaleRow, error) {
	g, reg, srcOps, err := scaleGraph(phones)
	if err != nil {
		return ScaleRow{}, err
	}
	slots := len(g.Slots())
	d := deploy.New(scaleSpeedup, paperCell, controller.Config{})
	clk := d.Clock
	r, err := d.AddRegion(region.Config{
		ID:       "scale",
		Graph:    g,
		Registry: reg,
		Scheme:   ft.BaseScheme,
		Phones:   slots,
		WiFi: simnet.WiFiConfig{
			BitsPerSecond: paperWiFiBps,
			LossProb:      paperWiFiLoss,
			FrameOverhead: scaleFrameOverhead,
			Channels:      channels,
			Assign:        scaleChannelPlan("scale", g, channels),
			Seed:          seed,
		},
		// The flood outlives a stock battery; energy is not under test.
		PhoneCfg: phone.Config{BatteryJoules: 1e12},
	})
	if err != nil {
		return ScaleRow{}, err
	}
	d.Start()

	// One driver goroutine multiplexes every leaf source on an absolute
	// schedule (offset_i + k×period of simulated time): a single sleeper
	// offers a deterministic load regardless of core count, and scaled-
	// clock overshoot never accumulates into under-offered load.
	var ingested int64
	var measuring atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(seed))
	next := make([]time.Duration, len(srcOps))
	base := clk.Now()
	for i := range srcOps {
		next[i] = base + time.Duration(rng.Int63n(int64(scaleSourcePeriod)))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			due := 0
			for i := 1; i < len(next); i++ {
				if next[i] < next[due] {
					due = i
				}
			}
			if wait := next[due] - clk.Now(); wait > 0 {
				clk.Sleep(wait)
			}
			r.Ingest(srcOps[due], due, scaleTupleBytes, "telemetry")
			if measuring.Load() {
				atomic.AddInt64(&ingested, 1)
			}
			next[due] += scaleSourcePeriod
		}
	}()

	clk.Sleep(scaleWarmup)
	wallStart := time.Now()
	r.OpenWindow()
	var allocs metrics.AllocMeter
	allocs.Start()
	measuring.Store(true)

	clk.Sleep(measure)

	measuring.Store(false)
	delivered := r.Report(clk.Now()).Tuples
	row := ScaleRow{
		Phones:    slots,
		Leaves:    len(srcOps),
		Channels:  channels,
		Ingested:  atomic.LoadInt64(&ingested),
		Delivered: delivered,
		TPS:       float64(delivered) / measure.Seconds(),
		P99Ms:     float64(r.SinkLatency().Percentile(99)) / float64(time.Millisecond),
		WallMs:    float64(time.Since(wallStart)) / float64(time.Millisecond),
	}
	row.AllocsPerTuple, _ = allocs.PerUnit(delivered)
	close(stop)
	wg.Wait()
	d.Stop()
	return row, nil
}

// writeScaleTable renders the sweep for humans.
func writeScaleTable(w io.Writer, rows []ScaleRow) {
	fmt.Fprintln(w, "Scale — region size × WiFi channels")
	fmt.Fprintf(w, "%-7s %-7s %-9s %10s %10s %10s %10s %12s\n",
		"phones", "leaves", "channels", "ingested", "delivered", "tuples/s", "p99 ms", "allocs/tuple")
	for _, o := range rows {
		fmt.Fprintf(w, "%-7d %-7d %-9d %10d %10d %10.1f %10.1f %12.1f\n",
			o.Phones, o.Leaves, o.Channels, o.Ingested, o.Delivered, o.TPS, o.P99Ms, o.AllocsPerTuple)
	}
}

var scaleExperiment = experiment("scale",
	"region size × WiFi channels throughput sweep",
	func(p Params) ([]ScaleRow, error) {
		var rows []ScaleRow
		for _, phones := range []int{8, 16, 32, 64} { // 128 works but is slow
			for _, ch := range []int{1, 4} {
				row, err := runScale(p.Seed, phones, ch, scaleMeasure)
				if err != nil {
					return nil, fmt.Errorf("scale %d phones %d channels: %w", phones, ch, err)
				}
				rows = append(rows, row)
			}
		}
		return rows, nil
	},
	writeScaleTable,
	"scale results carry no 1-channel and 4-channel row at one region size",
	// The claim the sweep makes: past the single-cell wall, channel planning
	// buys throughput — at the largest swept size four channels deliver at
	// least twice one channel's tuples/s. Saturated rows are airtime-bound,
	// so the ratio holds on any host; the absolute tuples/s says nothing
	// about it and is not gated.
	gateRow{What: "scale 2x one-channel tuples/s at the largest size", Format: "%.1f",
		Fail: "scale sweep: four channels no longer deliver 2x one channel at the largest size: %s >= %s",
		Pick: pick(func(rows []ScaleRow) (float64, float64, bool) {
			largest := 0
			for _, o := range rows {
				largest = max(largest, o.Phones)
			}
			one, ok1 := find(rows, func(o ScaleRow) bool { return o.Phones == largest && o.Channels == 1 })
			four, ok4 := find(rows, func(o ScaleRow) bool { return o.Phones == largest && o.Channels == 4 })
			return 2 * one.TPS, four.TPS, ok1 && ok4
		})},
)
