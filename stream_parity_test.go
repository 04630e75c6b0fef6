package mobistreams

// The DSL↔manual parity golden tests: a stream-built pipeline must compile
// to exactly the artifacts a graph+registry wired by hand with
// internal/graph produces — same graph projections, byte-identical
// operator checkpoints, and the same placements, committed versions and
// sink outputs when both run the same fixed-seed workload.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/stream"
)

func paritySmooth(v float64) float64 { return 0.5*v + 1 }
func parityPred(v float64) bool      { return v > 0 }

// parityHandBuilt wires the reference pipeline operator by operator with
// graph.Builder, the form the stream builder compiles to.
func parityHandBuilt(t *testing.T) (*graph.Graph, operator.Registry) {
	t.Helper()
	g, err := new(graph.Builder).
		AddOperator("sensor", "n1").AddOperator("smooth", "n2").
		AddOperator("pos", "n2").AddOperator("avg", "n3").
		AddOperator("out", "n4").
		Chain("sensor", "smooth", "pos", "avg", "out").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := operator.Registry{
		"sensor": func() Operator { return operator.NewPassthrough("sensor") },
		"smooth": func() Operator {
			return operator.NewMap("smooth", func(ctx *operator.Context, in *tuple.Tuple) *tuple.Tuple {
				v, ok := in.Value.(float64)
				if !ok {
					return nil
				}
				out := ctx.Clone(in)
				out.Value = paritySmooth(v)
				return out
			})
		},
		"pos": func() Operator {
			return operator.NewFilter("pos", func(in *tuple.Tuple) bool {
				v, ok := in.Value.(float64)
				return ok && parityPred(v)
			})
		},
		"avg": func() Operator { return operator.NewWindow("avg", 4) },
		"out": func() Operator { return operator.NewPassthrough("out") },
	}
	return g, reg
}

// parityDSL declares the same pipeline through the stream builder.
func parityDSL(t *testing.T, sinkFn func(float64)) *stream.Pipeline {
	t.Helper()
	p, err := stream.From[float64]("sensor", stream.On("n1")).
		Map("smooth", paritySmooth, stream.On("n2")).
		Filter("pos", parityPred, stream.On("n2")).
		Window("avg", 4, stream.On("n3")).
		Sink("out", sinkFn, stream.On("n4")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStreamParityGraph(t *testing.T) {
	hg, _ := parityHandBuilt(t)
	p := parityDSL(t, nil)
	dg := p.Graph()

	hOps, dOps := hg.Operators(), dg.Operators()
	if len(hOps) != len(dOps) {
		t.Fatalf("operator sets differ: %v vs %v", hOps, dOps)
	}
	for i := range hOps {
		if hOps[i] != dOps[i] {
			t.Fatalf("operator order differs: %v vs %v", hOps, dOps)
		}
		id := hOps[i]
		if hg.SlotOf(id) != dg.SlotOf(id) {
			t.Fatalf("slot of %s differs: %s vs %s", id, hg.SlotOf(id), dg.SlotOf(id))
		}
		hd, dd := hg.Downstream(id), dg.Downstream(id)
		if len(hd) != len(dd) {
			t.Fatalf("downstreams of %s differ: %v vs %v", id, hd, dd)
		}
		for j := range hd {
			if hd[j] != dd[j] {
				t.Fatalf("downstreams of %s differ: %v vs %v", id, hd, dd)
			}
		}
	}
	hs, ds := hg.Slots(), dg.Slots()
	if len(hs) != len(ds) {
		t.Fatalf("slots differ: %v vs %v", hs, ds)
	}
	for i := range hs {
		if hs[i] != ds[i] {
			t.Fatalf("slots differ: %v vs %v", hs, ds)
		}
	}
}

// TestStreamParityCheckpointBytes drives the operators of both builds
// through the same input sequence and asserts every slot's checkpoint blob
// encodes to identical bytes — the DSL compiles onto the very operators
// the hand-built registry instantiates, so recovery artifacts cannot
// diverge.
func TestStreamParityCheckpointBytes(t *testing.T) {
	hg, hreg := parityHandBuilt(t)
	p := parityDSL(t, nil)
	dreg := p.Registry()

	build := func(reg operator.Registry) map[string]Operator {
		ops := make(map[string]Operator)
		for _, id := range hg.Operators() {
			ops[id] = reg.New(id)
		}
		return ops
	}
	hOps, dOps := build(hreg), build(dreg)
	for i := 1; i <= 40; i++ {
		in := &tuple.Tuple{Seq: uint64(i), Size: 64, Kind: "reading", Value: float64(i - 20)}
		for _, id := range hg.Operators() {
			if _, err := operator.Run(hOps[id], "", in); err != nil {
				t.Fatalf("hand %s: %v", id, err)
			}
			if _, err := operator.Run(dOps[id], "", in); err != nil {
				t.Fatalf("dsl %s: %v", id, err)
			}
		}
	}
	for _, slot := range hg.Slots() {
		collect := func(ops map[string]Operator) []operator.Operator {
			var list []operator.Operator
			for _, id := range hg.OpsOnSlot(slot) {
				list = append(list, ops[id])
			}
			return list
		}
		hb, err := checkpoint.BuildBlob(slot, 1, collect(hOps), nil)
		if err != nil {
			t.Fatal(err)
		}
		db, err := checkpoint.BuildBlob(slot, 1, collect(dOps), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hb.EncodeState(), db.EncodeState()) {
			t.Fatalf("slot %s checkpoint bytes differ between DSL and hand-built", slot)
		}
		if hb.Size != db.Size || hb.CRC != db.CRC {
			t.Fatalf("slot %s blob metadata differs: size %d/%d crc %x/%x",
				slot, hb.Size, db.Size, hb.CRC, db.CRC)
		}
	}
}

// parityRun drives one region end to end on a fixed seed and returns its
// placements, committed version and sink outputs. add builds the region
// on sys.
func parityRun(t *testing.T, add func(sys *System) (*Region, error)) (map[string]string, uint64, map[uint64]float64) {
	t.Helper()
	outputs := make(map[uint64]float64)
	var mu sync.Mutex
	onOut := func(tt *Tuple) {
		v, ok := tt.Value.(float64)
		if !ok {
			return
		}
		mu.Lock()
		outputs[tt.Seq] = v
		mu.Unlock()
	}
	sys := NewSystem(SystemConfig{Speedup: 2000, CheckpointPeriod: time.Hour})
	r, err := add(sys)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides publish through the same hook, so outputs compare by seq.
	r.mu.Lock()
	r.onOutput = onOut
	r.mu.Unlock()
	sys.Start()
	defer sys.Stop()
	clk := sys.Clock()
	for i := 1; i <= 12; i++ {
		r.Ingest("sensor", float64(i), 512, "reading")
		clk.Sleep(200 * time.Millisecond)
	}
	v := r.TriggerCheckpoint()
	deadline := time.Now().Add(15 * time.Second)
	for r.Committed() < v && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	placements := make(map[string]string)
	for _, slot := range r.r.Graph().Slots() {
		if id, ok := r.r.Placement(slot); ok {
			placements[slot] = string(id)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	outCopy := make(map[uint64]float64, len(outputs))
	for k, vv := range outputs {
		outCopy[k] = vv
	}
	return placements, r.Committed(), outCopy
}

// TestStreamParityLiveSystem runs the DSL build and the hand build through
// identical regions (the default lossy medium, seeded alike): placements, committed checkpoint
// versions and every deduplicated sink output must match exactly. The
// hand build enters the deployment the way AddRegion hands a pipeline's
// graph and registry to it.
func TestStreamParityLiveSystem(t *testing.T) {
	hg, hreg := parityHandBuilt(t)
	hPlace, hCommit, hOut := parityRun(t, func(sys *System) (*Region, error) {
		wrapped := &Region{sys: sys}
		r, err := sys.d.AddRegion(region.Config{
			ID: "r1", Graph: hg, Registry: hreg, Scheme: MS, Phones: 6,
			WiFi:         simnet.WiFiConfig{BitsPerSecond: wifiBps, LossProb: wifiLoss},
			OnSinkOutput: wrapped.publish,
		})
		wrapped.r = r
		return wrapped, err
	})

	p := parityDSL(t, nil)
	dPlace, dCommit, dOut := parityRun(t, func(sys *System) (*Region, error) {
		return sys.AddRegion(RegionSpec{ID: "r1", Pipeline: p, Scheme: MS, Phones: 6})
	})

	if hCommit == 0 || hCommit != dCommit {
		t.Fatalf("committed versions differ: hand %d, dsl %d", hCommit, dCommit)
	}
	if len(hPlace) != len(dPlace) {
		t.Fatalf("placements differ: %v vs %v", hPlace, dPlace)
	}
	for slot, id := range hPlace {
		if dPlace[slot] != id {
			t.Fatalf("placement of %s differs: %s vs %s", slot, id, dPlace[slot])
		}
	}
	if len(hOut) == 0 {
		t.Fatal("hand-built run produced no outputs")
	}
	if len(hOut) != len(dOut) {
		t.Fatalf("output counts differ: hand %d, dsl %d", len(hOut), len(dOut))
	}
	for seq, v := range hOut {
		dv, ok := dOut[seq]
		if !ok || dv != v {
			t.Fatalf("output for seq %d differs: hand %v, dsl %v (present %v)", seq, v, dv, ok)
		}
	}
}
