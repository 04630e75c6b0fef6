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
	"mobistreams/stream"
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

// Pipeline declares Fig. 3's query network on 8 slots: n1/n2 host the
// sources, n3-n5 the three filter columns (C, A, M co-located per column),
// n6 the voting operator, n7 grouping and prediction, n8 the sink. S1 is a
// dispatching source: each frame goes to one column, mirroring each phone
// snapping its own pictures. S0 admits the previous intersection's
// advisories. onAdvisory (may be nil) receives every published advisory.
func Pipeline(p Params, onAdvisory func(Advisory)) (*stream.Pipeline, error) {
	p.applyDefaults()
	upstream := stream.From[Advisory]("S0", stream.On("n1"))
	frames := stream.Source[Frame]("S1", func() operator.Operator {
		return operator.NewRoundRobin("S1", "C0", "C1", "C2")
	}, stream.On("n2"))
	columns := make([]stream.Upstream, 3)
	for i := range columns {
		c, a, m := col("C", i), col("A", i), col("M", i)
		slot := stream.On(col("n", 3+i))
		blobs := stream.Through[Frame, blobsValue](frames, c, func() operator.Operator { return newColorFilter(c, p) }, slot).
			Via(a, func() operator.Operator { return newShapeFilter(a, p) }, slot)
		columns[i] = stream.Through[blobsValue, observation](blobs, m, func() operator.Operator { return newMotionFilter(m, p) }, slot)
	}
	votes := stream.Merge[observation]("V", func() operator.Operator { return newVoter(p) }, columns, stream.On("n6"))
	// G emits phaseProgress inside a phase and phaseChange at its end.
	phases := stream.Through[observation, any](votes, "G", func() operator.Operator { return newGrouper(p) }, stream.On("n7"))
	return stream.Merge[Advisory]("P", func() operator.Operator { return newPredictor(p) },
		[]stream.Upstream{phases, upstream}, stream.On("n7")).
		Sink("K", onAdvisory, stream.On("n8")).
		Build()
}

func col(prefix string, i int) string {
	return prefix + string(rune('0'+i))
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
