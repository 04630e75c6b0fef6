// Package signalguru builds the SignalGuru application (§II-B, Fig. 3): at
// each intersection, windshield camera frames pass colour, shape and motion
// filters in three parallel columns, a voting operator fuses the surviving
// detections, a grouping operator segments phases, and an SVM-backed
// predictor estimates the signal transition time, which cascades to the
// next intersection.
package signalguru

import (
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/vision"
)

// The service time of V, G and P, and the modelled state sizes: P's SVM
// model plus phase history, G's segment buffers and each motion filter's
// frame-history buffers.
const (
	modelCost         = 100 * time.Millisecond
	predictStateBytes = 1536 << 10
	groupStateBytes   = 768 << 10
	columnStateBytes  = 256 << 10
)

// Params calibrates the application. Zero values give the paper-derived
// defaults (a colour+shape+motion column of ~3.4 s on the 600 MHz A8).
type Params struct {
	// ColorCost, ShapeCost, MotionCost are per-frame service times
	// (defaults 1.6 s, 1.0 s, 0.8 s).
	ColorCost  time.Duration
	ShapeCost  time.Duration
	MotionCost time.Duration
	// RealCompute runs the actual filters on frame payloads.
	RealCompute bool
}

func (p *Params) applyDefaults() {
	if p.ColorCost <= 0 {
		p.ColorCost = 1600 * time.Millisecond
	}
	if p.ShapeCost <= 0 {
		p.ShapeCost = time.Second
	}
	if p.MotionCost <= 0 {
		p.MotionCost = 800 * time.Millisecond
	}
}

// Frame is a camera tuple payload.
type Frame struct {
	Image *vision.Image
	// Truth is the planted light colour (ground truth for non-compute
	// runs and accuracy checks).
	Truth vision.LightColor
}

// observation is a filtered detection flowing from the columns to V.
type observation struct {
	Color vision.LightColor
	Valid bool
}

// phaseChange is G's output on a transition: a completed phase.
type phaseChange struct {
	Color    vision.LightColor
	Duration float64 // seconds
}

// phaseProgress is G's frame-rate output inside a phase.
type phaseProgress struct {
	Color   vision.LightColor
	Elapsed float64 // seconds into the phase
}

// Advisory is the sink output: the predicted transition.
type Advisory struct {
	Color     vision.LightColor
	NextInSec float64
}

// Graph returns Fig. 3's query network on 8 slots: n1/n2 host the sources,
// n3-n5 the three filter columns (C, A, M co-located per column), n6 the
// voting operator, n7 grouping and prediction, n8 the sink.
func Graph() (*graph.Graph, error) {
	var b graph.Builder
	b.AddOperator("S0", "n1").AddOperator("S1", "n2")
	b.AddOperator("C0", "n3").AddOperator("A0", "n3").AddOperator("M0", "n3")
	b.AddOperator("C1", "n4").AddOperator("A1", "n4").AddOperator("M1", "n4")
	b.AddOperator("C2", "n5").AddOperator("A2", "n5").AddOperator("M2", "n5")
	b.AddOperator("V", "n6")
	b.AddOperator("G", "n7").AddOperator("P", "n7")
	b.AddOperator("K", "n8")
	for i := 0; i < 3; i++ {
		c, a, m := col("C", i), col("A", i), col("M", i)
		b.Connect("S1", c)
		b.Chain(c, a, m)
		b.Connect(m, "V")
	}
	b.Chain("V", "G", "P")
	b.Connect("S0", "P")
	b.Connect("P", "K")
	return b.Build()
}

func col(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// Registry builds the application operators. S1 is a dispatching source:
// each frame goes to one column, mirroring each phone snapping its own
// pictures.
func Registry(p Params) operator.Registry {
	p.applyDefaults()
	return operator.Registry{
		"S0": func() operator.Operator { return operator.NewPassthrough("S0") },
		"S1": func() operator.Operator { return operator.NewRoundRobin("S1", "C0", "C1", "C2") },
		"C0": func() operator.Operator { return newColorFilter("C0", p) },
		"C1": func() operator.Operator { return newColorFilter("C1", p) },
		"C2": func() operator.Operator { return newColorFilter("C2", p) },
		"A0": func() operator.Operator { return newShapeFilter("A0", p) },
		"A1": func() operator.Operator { return newShapeFilter("A1", p) },
		"A2": func() operator.Operator { return newShapeFilter("A2", p) },
		"M0": func() operator.Operator { return newMotionFilter("M0", p) },
		"M1": func() operator.Operator { return newMotionFilter("M1", p) },
		"M2": func() operator.Operator { return newMotionFilter("M2", p) },
		"V":  func() operator.Operator { return newVoter(p) },
		"G":  func() operator.Operator { return newGrouper(p) },
		"P":  func() operator.Operator { return newPredictor(p) },
		"K":  func() operator.Operator { return operator.NewPassthrough("K") },
	}
}
