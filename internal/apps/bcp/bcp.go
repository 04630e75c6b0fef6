// Package bcp builds the Bus Capacity Prediction application (§II-B,
// Fig. 2): at each bus stop, camera frames are filtered for motion,
// dispatched across four parallel face counters, aggregated into a boarding
// model, and joined with the bus-info path (noise filter, arrival-time and
// alighting models) to predict on-bus passenger counts, which cascade to
// the next stop.
package bcp

import (
	"fmt"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/vision"
	"mobistreams/stream"
)

// The small model operators' service time, and the modelled statistical
// model sizes of each counter and of the boarding model. These dominate
// checkpoint sizes.
const (
	modelCost         = 100 * time.Millisecond
	counterStateBytes = 1 << 20
	boardStateBytes   = 1280 << 10
)

// Params calibrates the application. Zero values get the paper-derived
// defaults (§IV: ~7 s counting on a 600 MHz A8).
type Params struct {
	// CounterCost is the face-count service time per frame (default 7 s).
	CounterCost time.Duration
	// MotionCost is the passerby-filter service time (default 1 s).
	MotionCost time.Duration
	// RealCompute runs the actual Haar cascade on frame payloads;
	// benchmarks disable it and use the frame's planted ground truth so
	// scaled-clock timing is not distorted by wall-clock compute.
	RealCompute bool
}

func (p *Params) applyDefaults() {
	if p.CounterCost <= 0 {
		p.CounterCost = 7 * time.Second
	}
	if p.MotionCost <= 0 {
		p.MotionCost = time.Second
	}
}

// Frame is a camera tuple payload: the synthetic image (when computing for
// real) plus planted ground truth.
type Frame struct {
	Image   *vision.Image
	Planted int
}

// BusInfo is the bus-path tuple payload: the predicted on-board count when
// the bus left the previous stop.
type BusInfo struct {
	OnBoard float64
	// Corrupt marks sensor noise the N operator must drop.
	Corrupt bool
}

// Prediction is the sink output: predicted on-board count at this stop.
type Prediction struct {
	BusSeq  uint64
	OnBoard float64
	Board   float64
	Alight  float64
}

// Pipeline declares Fig. 2's query network on 8 slots: n1 hosts the bus
// path (S0, N, A, L), n2 the camera source, n3 motion detection and
// dispatch, n4-n7 the four counters, n8 the boarding model, join,
// capacity model and sink. onPrediction (may be nil) receives every
// published prediction.
func Pipeline(p Params, onPrediction func(Prediction)) (*stream.Pipeline, error) {
	p.applyDefaults()
	bus := stream.From[BusInfo]("S0", stream.On("n1")).
		Via("N", func() operator.Operator { return newNoiseFilter(p) }, stream.On("n1"))
	eta := bus.Via("A", func() operator.Operator { return newArrivalModel(p) }, stream.On("n1"))
	alight := stream.Through[BusInfo, float64](bus, "L", func() operator.Operator { return newAlightModel(p) }, stream.On("n1"))

	counters := []string{"C0", "C1", "C2", "C3"}
	frames := stream.From[Frame]("S1", stream.On("n2")).
		Via("H", func() operator.Operator { return newMotionDetect(p) }, stream.On("n3")).
		Via("D", func() operator.Operator { return operator.NewRoundRobin("D", counters...) }, stream.On("n3"))
	counts := make([]stream.Upstream, len(counters))
	for i, id := range counters {
		id := id
		counts[i] = stream.Through[Frame, float64](frames, id,
			func() operator.Operator { return newCounter(id, p) }, stream.On(fmt.Sprintf("n%d", 4+i)))
	}
	board := stream.Merge[float64]("B", func() operator.Operator { return newBoardModel(p) }, counts, stream.On("n8"))

	return stream.Merge[Prediction]("J", func() operator.Operator { return newLatestJoin(p) },
		[]stream.Upstream{eta, alight, board}, stream.On("n8")).
		Via("P", func() operator.Operator { return newCapacityModel(p) }, stream.On("n8")).
		Sink("K", onPrediction, stream.On("n8")).
		Build()
}

// Graph returns the query network Pipeline declares.
func Graph() (*graph.Graph, error) {
	pl, err := Pipeline(Params{}, nil)
	if err != nil {
		return nil, err
	}
	return pl.Graph(), nil
}

// Registry builds the application operators Pipeline declares. The
// declaration is fixed, so it builds; Graph reports any error it had.
func Registry(p Params) operator.Registry {
	pl, err := Pipeline(p, nil)
	if err != nil {
		panic(err)
	}
	return pl.Registry()
}
