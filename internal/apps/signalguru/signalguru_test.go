package signalguru

import (
	"testing"
	"time"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/internal/vision"
)

func params() Params {
	return Params{ColorCost: time.Nanosecond,
		ShapeCost: time.Nanosecond, MotionCost: time.Nanosecond}
}

func TestGraphShape(t *testing.T) {
	g, err := Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Slots()); got != 8 {
		t.Fatalf("slots = %d, want 8", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != "K" {
		t.Fatalf("sinks = %v", got)
	}
	// Three parallel filter columns.
	if got := g.Downstream("S1"); len(got) != 3 {
		t.Fatalf("S1 downstream = %v", got)
	}
	if got := g.Upstream("V"); len(got) != 3 {
		t.Fatalf("V upstream = %v", got)
	}
	// P merges the vote path with the previous intersection.
	ups := g.Upstream("P")
	if len(ups) != 2 {
		t.Fatalf("P upstream = %v", ups)
	}
}

func TestRegistryBuildsEveryOperator(t *testing.T) {
	g, _ := Graph()
	reg := Registry(params())
	for _, id := range g.Operators() {
		if op := reg.New(id); op.ID() != id {
			t.Fatalf("factory for %s built %s", id, op.ID())
		}
	}
}

func TestColumnGroundTruthFlow(t *testing.T) {
	p := params()
	c := newColorFilter("C0", p)
	a := newShapeFilter("A0", p)
	m := newMotionFilter("M0", p)
	in := &tuple.Tuple{Seq: 1, Value: Frame{Truth: vision.Green}}
	outs, err := operator.Run(c, "S1", in)
	if err != nil || len(outs) != 1 {
		t.Fatalf("color: %v %v", outs, err)
	}
	outs, err = operator.Run(a, "C0", outs[0].T)
	if err != nil || len(outs) != 1 {
		t.Fatalf("shape: %v %v", outs, err)
	}
	outs, err = operator.Run(m, "A0", outs[0].T)
	if err != nil || len(outs) != 1 {
		t.Fatalf("motion: %v %v", outs, err)
	}
	obs := outs[0].T.Value.(observation)
	if !obs.Valid || obs.Color != vision.Green {
		t.Fatalf("observation = %+v", obs)
	}
}

func TestColumnRealCompute(t *testing.T) {
	p := params()
	p.RealCompute = true
	c := newColorFilter("C0", p)
	a := newShapeFilter("A0", p)
	m := newMotionFilter("M0", p)
	for i := 0; i < 2; i++ { // two frames so the motion filter has a prev
		im, _ := vision.GenerateIntersection(vision.Scene{W: 120, H: 90, Noise: 15, Seed: 4}, vision.Red, 2)
		in := &tuple.Tuple{Seq: uint64(i), Value: Frame{Truth: vision.Red, Image: im}}
		outs, err := operator.Run(c, "S1", in)
		if err != nil {
			t.Fatal(err)
		}
		outs, err = operator.Run(a, "C0", outs[0].T)
		if err != nil {
			t.Fatal(err)
		}
		outs, err = operator.Run(m, "A0", outs[0].T)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			obs := outs[0].T.Value.(observation)
			if !obs.Valid || obs.Color != vision.Red {
				t.Fatalf("real-compute observation = %+v", obs)
			}
		}
	}
}

func TestVoterMajority(t *testing.T) {
	v := newVoter(params())
	for i := 0; i < 3; i++ {
		operator.Run(v, "M0", &tuple.Tuple{Value: observation{Color: vision.Green, Valid: true}})
	}
	outs, err := operator.Run(v, "M1", &tuple.Tuple{Value: observation{Color: vision.Red, Valid: true}})
	if err != nil || len(outs) != 1 {
		t.Fatal("voter did not emit")
	}
	if got := outs[0].T.Value.(observation).Color; got != vision.Green {
		t.Fatalf("vote = %v, want green", got)
	}
	// Invalid observations don't pollute the window.
	empty := newVoter(params())
	outs, _ = operator.Run(empty, "M0", &tuple.Tuple{Value: observation{Valid: false}})
	if len(outs) != 0 {
		t.Fatal("invalid observation produced a vote")
	}
}

func TestGrouperEmitsTransitions(t *testing.T) {
	g := newGrouper(params())
	mk := func(c vision.LightColor, at time.Duration) *tuple.Tuple {
		return &tuple.Tuple{Created: at, Value: observation{Color: c, Valid: true}}
	}
	if outs, _ := operator.Run(g, "V", mk(vision.Red, 0)); len(outs) != 0 {
		t.Fatal("first observation emitted a phase")
	}
	outs, _ := operator.Run(g, "V", mk(vision.Red, 10*time.Second))
	if len(outs) != 1 {
		t.Fatal("same colour should emit frame-rate progress")
	}
	prog := outs[0].T.Value.(phaseProgress)
	if prog.Color != vision.Red || prog.Elapsed != 10 {
		t.Fatalf("progress = %+v", prog)
	}
	outs, _ = operator.Run(g, "V", mk(vision.Green, 30*time.Second))
	if len(outs) != 1 {
		t.Fatal("transition not emitted")
	}
	change := outs[0].T.Value.(phaseChange)
	if change.Color != vision.Red || change.Duration != 30 {
		t.Fatalf("phase = %+v", change)
	}
}

func TestPredictorLearnsAndBlends(t *testing.T) {
	p := newPredictor(params())
	// Upstream advisory arrives.
	operator.Run(p, "S0", &tuple.Tuple{Value: Advisory{Color: vision.Green, NextInSec: 10}})
	// Observe several red phases of 40 s; prediction for next green uses
	// green history (none) blended with upstream.
	for i := 0; i < 3; i++ {
		outs, err := operator.Run(p, "G", &tuple.Tuple{Value: phaseChange{Color: vision.Red, Duration: 40}})
		if err != nil || len(outs) != 1 {
			t.Fatalf("predictor emit: %v %v", outs, err)
		}
		adv := outs[0].T.Value.(Advisory)
		if adv.Color != vision.Green {
			t.Fatalf("advisory colour = %v", adv.Color)
		}
		// Blend of fallback 30 and upstream 10: 0.7*30+0.3*10 = 24.
		if adv.NextInSec != 24 {
			t.Fatalf("advisory = %v, want 24", adv.NextInSec)
		}
	}
	// Now observe green phases; prediction shifts toward their mean.
	operator.Run(p, "G", &tuple.Tuple{Value: phaseChange{Color: vision.Green, Duration: 50}})
	outs, _ := operator.Run(p, "G", &tuple.Tuple{Value: phaseChange{Color: vision.Red, Duration: 40}})
	adv := outs[0].T.Value.(Advisory)
	if adv.NextInSec != 0.7*50+0.3*10 {
		t.Fatalf("learned advisory = %v, want 38", adv.NextInSec)
	}
}

func TestStatefulOperatorsRoundTrip(t *testing.T) {
	p := params()
	m := newMotionFilter("M0", p)
	pr := params()
	pr.RealCompute = true
	mReal := newMotionFilter("M0", pr)
	im, _ := vision.GenerateIntersection(vision.Scene{W: 120, H: 90, Noise: 10, Seed: 2}, vision.Green, 1)
	operator.Run(mReal, "A0", &tuple.Tuple{Value: blobsValue{blobs: vision.ColorFilter(im)}})
	for _, op := range []interface {
		Snapshot() ([]byte, error)
		Restore([]byte) error
	}{m, mReal, newVoter(p), newGrouper(p), newPredictor(p)} {
		state, err := op.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Restore(state); err != nil {
			t.Fatal(err)
		}
	}
	v := newVoter(p)
	operator.Run(v, "M0", &tuple.Tuple{Value: observation{Color: vision.Yellow, Valid: true}})
	state, _ := v.Snapshot()
	v2 := newVoter(p)
	if err := v2.Restore(state); err != nil {
		t.Fatal(err)
	}
	if len(v2.window) != 1 || v2.window[0].Color != vision.Yellow {
		t.Fatalf("restored window = %+v", v2.window)
	}
}
