// Package bcp builds the Bus Capacity Prediction application (§II-B,
// Fig. 2): at each bus stop, camera frames are filtered for motion,
// dispatched across four parallel face counters, aggregated into a boarding
// model, and joined with the bus-info path (noise filter, arrival-time and
// alighting models) to predict on-bus passenger counts, which cascade to
// the next stop.
package bcp

import (
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/vision"
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

// Graph returns Fig. 2's query network on 8 slots: n1 hosts the bus path
// (S0, N, A, L), n2 the camera source, n3 motion detection and dispatch,
// n4-n7 the four counters, n8 the boarding model, join, capacity model and
// sink.
func Graph() (*graph.Graph, error) {
	var b graph.Builder
	b.AddOperator("S0", "n1").AddOperator("N", "n1").
		AddOperator("A", "n1").AddOperator("L", "n1")
	b.AddOperator("S1", "n2")
	b.AddOperator("H", "n3").AddOperator("D", "n3")
	b.AddOperator("C0", "n4").AddOperator("C1", "n5").
		AddOperator("C2", "n6").AddOperator("C3", "n7")
	b.AddOperator("B", "n8").AddOperator("J", "n8").
		AddOperator("P", "n8").AddOperator("K", "n8")
	b.Chain("S0", "N")
	b.Connect("N", "A").Connect("N", "L")
	b.Chain("S1", "H", "D")
	for _, c := range []string{"C0", "C1", "C2", "C3"} {
		b.Connect("D", c).Connect(c, "B")
	}
	b.Connect("A", "J").Connect("L", "J").Connect("B", "J")
	b.Chain("J", "P", "K")
	return b.Build()
}

// Registry builds the application operators.
func Registry(p Params) operator.Registry {
	p.applyDefaults()
	return operator.Registry{
		"S0": func() operator.Operator { return operator.NewPassthrough("S0") },
		"S1": func() operator.Operator { return operator.NewPassthrough("S1") },
		"N":  func() operator.Operator { return newNoiseFilter(p) },
		"A":  func() operator.Operator { return newArrivalModel(p) },
		"L":  func() operator.Operator { return newAlightModel(p) },
		"H":  func() operator.Operator { return newMotionDetect(p) },
		"D":  func() operator.Operator { return operator.NewRoundRobin("D", "C0", "C1", "C2", "C3") },
		"C0": func() operator.Operator { return newCounter("C0", p) },
		"C1": func() operator.Operator { return newCounter("C1", p) },
		"C2": func() operator.Operator { return newCounter("C2", p) },
		"C3": func() operator.Operator { return newCounter("C3", p) },
		"B":  func() operator.Operator { return newBoardModel(p) },
		"J":  func() operator.Operator { return newLatestJoin(p) },
		"P":  func() operator.Operator { return newCapacityModel(p) },
		"K":  func() operator.Operator { return operator.NewPassthrough("K") },
	}
}
