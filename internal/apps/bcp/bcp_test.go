package bcp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/internal/vision"
)

func params() Params {
	return Params{CounterCost: time.Nanosecond, MotionCost: time.Nanosecond}
}

// handWired is Fig. 2 wired operator by operator, as the application was
// before it declared its dataflow through stream: the reference Pipeline
// must reproduce.
func handWired(t *testing.T) *graph.Graph {
	t.Helper()
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
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shape renders every projection a node compiles from the graph: operator
// order with each operator's slot and upstream and downstream lists in
// order, the sorted slots with their operators and neighbour slots, the
// weighted cross-slot edges, and the sources and sinks.
func shape(g *graph.Graph) string {
	var b strings.Builder
	for _, id := range g.Operators() {
		fmt.Fprintf(&b, "op %s @%s up=%v down=%v\n", id, g.SlotOf(id), g.Upstream(id), g.Downstream(id))
	}
	for _, s := range g.Slots() {
		fmt.Fprintf(&b, "slot %s ops=%v up=%v down=%v\n", s, g.OpsOnSlot(s), g.SlotUpstreams(s), g.SlotDownstreams(s))
	}
	fmt.Fprintf(&b, "edges %v\nsources %v sinks %v\n", g.SlotEdges(), g.Sources(), g.Sinks())
	return b.String()
}

func TestGraphShape(t *testing.T) {
	g, err := Graph()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shape(g), shape(handWired(t)); got != want {
		t.Fatalf("declared graph differs from the hand-wired one:\n%s\nwant:\n%s", got, want)
	}
	if got := strings.Join(g.Operators(), ","); got != "S0,N,A,L,S1,H,D,C0,C1,C2,C3,B,J,P,K" {
		t.Fatalf("operator order = %s", got)
	}
	if got := len(g.Slots()); got != 8 {
		t.Fatalf("slots = %d, want 8", got)
	}
	if got := g.Sources(); len(got) != 2 || got[0] != "S0" || got[1] != "S1" {
		t.Fatalf("sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != "K" {
		t.Fatalf("sinks = %v", got)
	}
	// The dispatcher feeds all four counters.
	if got := g.Downstream("D"); len(got) != 4 {
		t.Fatalf("D downstream = %v", got)
	}
}

func TestRegistryBuildsEveryOperator(t *testing.T) {
	g, _ := Graph()
	reg := Registry(params())
	for _, id := range g.Operators() {
		op := reg.New(id)
		if op.ID() != id {
			t.Fatalf("factory for %s built %s", id, op.ID())
		}
	}
}

func TestNoiseFilterDropsCorrupt(t *testing.T) {
	n := newNoiseFilter(params())
	outs, err := operator.Run(n, "S0", &tuple.Tuple{Value: BusInfo{OnBoard: 20, Corrupt: true}})
	if err != nil || len(outs) != 0 {
		t.Fatalf("corrupt passed: %v %v", outs, err)
	}
	outs, err = operator.Run(n, "S0", &tuple.Tuple{Value: BusInfo{OnBoard: -3}})
	if err != nil || len(outs) != 0 {
		t.Fatalf("negative passed: %v %v", outs, err)
	}
	outs, err = operator.Run(n, "S0", &tuple.Tuple{Value: BusInfo{OnBoard: 20}})
	if err != nil || len(outs) != 1 {
		t.Fatal("clean reading dropped")
	}
	if got := outs[0].T.Value.(BusInfo).OnBoard; got != 20 {
		t.Fatalf("first ewma = %v, want 20", got)
	}
}

func TestCounterUsesGroundTruthOrVision(t *testing.T) {
	c := newCounter("C0", params())
	outs, err := operator.Run(c, "D", &tuple.Tuple{Value: Frame{Planted: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].T.Value.(float64); got != 3 {
		t.Fatalf("ground-truth count = %v, want 3", got)
	}
	p := params()
	p.RealCompute = true
	cr := newCounter("C0", p)
	im, _ := vision.GenerateFaces(vision.Scene{W: 160, H: 120, Noise: 25, Seed: 5}, 2)
	outs, err = operator.Run(cr, "D", &tuple.Tuple{Value: Frame{Planted: 2, Image: im}})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].T.Value.(float64); got != 2 {
		t.Fatalf("vision count = %v, want 2", got)
	}
}

func TestCounterSnapshotRoundTrip(t *testing.T) {
	c := newCounter("C1", params())
	for i := 0; i < 5; i++ {
		operator.Run(c, "D", &tuple.Tuple{Value: Frame{Planted: i}})
	}
	state, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c2 := newCounter("C1", params())
	if err := c2.Restore(state); err != nil {
		t.Fatal(err)
	}
	if c2.Frames() != 5 {
		t.Fatalf("restored frames = %d", c2.Frames())
	}
	if err := c2.Restore([]byte{1}); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestLatestJoinCombinesPaths(t *testing.T) {
	j := newLatestJoin(params())
	// Boarding estimate arrives first (camera path is faster).
	if _, err := operator.Run(j, "B", &tuple.Tuple{Seq: 99, Value: 4.0}); err != nil {
		t.Fatal(err)
	}
	outs, err := operator.Run(j, "A", &tuple.Tuple{Seq: 1, Value: BusInfo{OnBoard: 12}})
	if err != nil || len(outs) != 0 {
		t.Fatalf("half-joined emitted: %v %v", outs, err)
	}
	outs, err = operator.Run(j, "L", &tuple.Tuple{Seq: 1, Value: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatal("join did not emit")
	}
	pred := outs[0].T.Value.(Prediction)
	if pred.OnBoard != 12 || pred.Board != 4 || pred.Alight != 3 {
		t.Fatalf("prediction = %+v", pred)
	}
	if _, err := operator.Run(j, "X", &tuple.Tuple{}); err == nil {
		t.Fatal("unknown upstream accepted")
	}
}

func TestLatestJoinSnapshotRoundTrip(t *testing.T) {
	j := newLatestJoin(params())
	operator.Run(j, "B", &tuple.Tuple{Seq: 9, Value: 5.0})
	operator.Run(j, "A", &tuple.Tuple{Seq: 2, Value: BusInfo{OnBoard: 7}})
	operator.Run(j, "L", &tuple.Tuple{Seq: 3, Value: 2.0})
	state, err := j.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	j2 := newLatestJoin(params())
	if err := j2.Restore(state); err != nil {
		t.Fatal(err)
	}
	// Completing seq 2 against restored state must fire with the
	// restored boarding estimate.
	outs, err := operator.Run(j2, "L", &tuple.Tuple{Seq: 2, Value: 1.0})
	if err != nil || len(outs) != 1 {
		t.Fatalf("restored join: %v %v", outs, err)
	}
	pred := outs[0].T.Value.(Prediction)
	if pred.OnBoard != 7 || pred.Board != 5 {
		t.Fatalf("restored prediction = %+v", pred)
	}
}

func TestCapacityModelClamps(t *testing.T) {
	p := newCapacityModel(params())
	outs, err := operator.Run(p, "J", &tuple.Tuple{Value: Prediction{OnBoard: 2, Board: 1, Alight: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].T.Value.(Prediction).OnBoard; got != 0 {
		t.Fatalf("clamped capacity = %v, want 0", got)
	}
	outs, _ = operator.Run(p, "J", &tuple.Tuple{Value: Prediction{OnBoard: 10, Board: 5, Alight: 3}})
	if got := outs[0].T.Value.(Prediction).OnBoard; got != 12 {
		t.Fatalf("capacity = %v, want 12", got)
	}
}

func TestMotionDetectDropsEmptyFrames(t *testing.T) {
	h := newMotionDetect(params())
	outs, err := operator.Run(h, "S1", &tuple.Tuple{Value: Frame{Planted: 0}})
	if err != nil || len(outs) != 0 {
		t.Fatal("empty frame passed")
	}
	outs, err = operator.Run(h, "S1", &tuple.Tuple{Value: Frame{Planted: 2}})
	if err != nil || len(outs) != 1 {
		t.Fatal("occupied frame dropped")
	}
}

func TestAllStatefulOperatorsRoundTrip(t *testing.T) {
	g, _ := Graph()
	reg := Registry(params())
	in := &tuple.Tuple{Seq: 1, Created: 5 * time.Second, Value: BusInfo{OnBoard: 10}}
	frame := &tuple.Tuple{Seq: 1, Created: 5 * time.Second, Value: Frame{Planted: 2}}
	for _, id := range g.Operators() {
		op := reg.New(id)
		// Push a plausible tuple through where the payload type allows.
		switch id {
		case "S0", "N":
			operator.Run(op, "", in)
		case "A", "L":
			operator.Run(op, "N", in)
		case "S1", "H":
			operator.Run(op, "", frame)
		case "C0", "C1", "C2", "C3":
			operator.Run(op, "D", frame)
		}
		state, err := op.Snapshot()
		if err != nil {
			t.Fatalf("%s snapshot: %v", id, err)
		}
		fresh := reg.New(id)
		if err := fresh.Restore(state); err != nil {
			t.Fatalf("%s restore: %v", id, err)
		}
	}
}

var _ operator.Operator = (*counter)(nil)

// Frames reports processed frames (tests).
func (o *counter) Frames() uint64 { return o.frames }
