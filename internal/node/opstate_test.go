package node

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// runningSum is a custom stateful operator: the executor must carry its
// state through a checkpoint into a fresh node byte for byte.
type runningSum struct {
	operator.Base
	sum float64
	n   uint64
}

func (l *runningSum) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	v, _ := t.Value.(float64)
	l.sum += v
	l.n++
	out := ctx.Clone(t)
	out.Value = l.sum
	ctx.Emit(out)
	return nil
}

func (l *runningSum) Snapshot() ([]byte, error) {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(l.n))
	binary.BigEndian.PutUint64(buf[8:16], uint64(int64(l.sum*1000)))
	return buf[:], nil
}

func (l *runningSum) Restore(data []byte) error {
	l.n = binary.BigEndian.Uint64(data[0:8])
	l.sum = float64(int64(binary.BigEndian.Uint64(data[8:16]))) / 1000
	return nil
}

func (*runningSum) StateSize() int { return 16 }

func sumHarness(t *testing.T, sink func(*tuple.Tuple)) *Node {
	t.Helper()
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("acc", "s1").AddOperator("out", "s1")
	gb.Chain("src", "acc", "out")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := operator.Registry{
		"src": func() operator.Operator { return operator.NewPassthrough("src") },
		"acc": func() operator.Operator { return &runningSum{Base: operator.Base{Name: "acc"}} },
		"out": func() operator.Operator { return operator.NewPassthrough("out") },
	}
	return New(Config{
		ID: "phone-a", Graph: g, Registry: reg,
		Slot: "s1", OpIDs: g.OpsOnSlot("s1"),
		Clock: clock.NewScaled(1000), OnSinkOutput: sink,
	})
}

func feedSum(n *Node, lo, hi int) {
	p := n.pipe.Load()
	idx := p.opIndex("src")
	for i := lo; i <= hi; i++ {
		n.runOp(p, idx, "", &tuple.Tuple{Seq: uint64(i), Size: 8, Value: float64(i)}, noStamp)
	}
}

// TestStatefulOperatorCheckpointRoundTrip pins a custom operator's state
// round trip through a node: it checkpoints, restores into a fresh node,
// re-checkpoints byte-identically, and continues processing in lockstep
// with the original.
func TestStatefulOperatorCheckpointRoundTrip(t *testing.T) {
	var outs1, outs2 []float64
	n1 := sumHarness(t, func(tt *tuple.Tuple) { outs1 = append(outs1, tt.Value.(float64)) })
	feedSum(n1, 1, 10)
	if len(outs1) != 10 || outs1[9] != 55 {
		t.Fatalf("running-sum emissions: %v", outs1)
	}

	blob1, err := n1.snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if !blob1.VerifyCRC() {
		t.Fatal("blob CRC broken")
	}

	n2 := sumHarness(t, func(tt *tuple.Tuple) { outs2 = append(outs2, tt.Value.(float64)) })
	if err := checkpoint.RestoreBlob(blob1, n2.pipe.Load().operators()); err != nil {
		t.Fatal(err)
	}
	blob2, err := n2.snapshot(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob1.EncodeState(), blob2.EncodeState()) {
		t.Fatal("restored checkpoint not byte-identical")
	}

	// Both nodes keep processing identically after the round-trip.
	feedSum(n1, 11, 15)
	feedSum(n2, 11, 15)
	b3, _ := n1.snapshot(4)
	b4, _ := n2.snapshot(4)
	if !bytes.Equal(b3.EncodeState(), b4.EncodeState()) {
		t.Fatal("post-restore processing diverged from the original")
	}
	if len(outs2) != 5 || outs2[4] != outs1[14] {
		t.Fatalf("post-restore emissions diverged: %v vs %v", outs2, outs1[10:])
	}
}

// rearmOp pathologically re-registers an already-due timer from OnTimer —
// the operator bug the bounded timer drain must survive.
type rearmOp struct {
	operator.Base
	fired int
}

func (r *rearmOp) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	ctx.SetTimer(0) // due immediately
	return nil
}

func (r *rearmOp) OnTimer(ctx *operator.Context, at time.Duration) error {
	r.fired++
	ctx.SetTimer(at) // still due: must defer to the next boundary
	return nil
}

// TestFireDueTimersBoundedDrain pins the spin guard: a timer re-registered
// during the drain with an already-due deadline is deferred, not fired in
// the same drain.
func TestFireDueTimersBoundedDrain(t *testing.T) {
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("w", "s1").AddOperator("out", "s1")
	gb.Chain("src", "w", "out")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	op := &rearmOp{Base: operator.Base{Name: "w"}}
	reg := operator.Registry{
		"src": func() operator.Operator { return operator.NewPassthrough("src") },
		"w":   func() operator.Operator { return op },
		"out": func() operator.Operator { return operator.NewPassthrough("out") },
	}
	n := New(Config{ID: "a", Graph: g, Registry: reg, Slot: "s1",
		OpIDs: g.OpsOnSlot("s1"), Clock: clock.NewScaled(1000)})
	p := n.pipe.Load()
	n.runOp(p, p.opIndex("src"), "", &tuple.Tuple{Seq: 1, Size: 8}, noStamp)
	if len(p.timers) != 1 {
		t.Fatalf("timer not armed: %d pending", len(p.timers))
	}
	n.fireDueTimers(p)
	if op.fired != 1 {
		t.Fatalf("drain fired %d times, want exactly 1 (re-arm deferred)", op.fired)
	}
	if len(p.timers) != 1 {
		t.Fatalf("re-registered timer lost: %d pending", len(p.timers))
	}
	n.fireDueTimers(p) // the next boundary serves the deferred timer once
	if op.fired != 2 {
		t.Fatalf("deferred timer not served at the next boundary: fired %d", op.fired)
	}
}
