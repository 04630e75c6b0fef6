package node

import (
	"testing"

	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// BenchmarkEmitPath measures the emit-context contract through the
// compiled pipeline: src -> m1 -> m2 -> sink on one slot. The steady state
// is pinned to 0 allocs/op by TestEmitPathZeroAllocs and reported by the
// benchmark ledger's node.emit_allocs_per_tuple row (benchmark/micro.go).
func BenchmarkEmitPath(b *testing.B) {
	n := emitBenchNode(false, obs.NewRegistry(), func(*tuple.Tuple) {})
	p := n.pipe.Load()
	idx := p.opIndex("src")
	t := &tuple.Tuple{Seq: 1, Size: 64, Value: 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.runOp(p, idx, "", t, noStamp)
	}
}

// BenchmarkEmitPathLegacy measures the same chain through seed-contract
// operators and the []Out adapter — the allocation cost the redesign
// removed from the hot path.
func BenchmarkEmitPathLegacy(b *testing.B) {
	n := emitBenchNode(true, obs.NewRegistry(), func(*tuple.Tuple) {})
	p := n.pipe.Load()
	idx := p.opIndex("src")
	t := &tuple.Tuple{Seq: 1, Size: 64, Value: 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.runOp(p, idx, "", t, noStamp)
	}
}

// TestEmitPathZeroAllocs pins the acceptance criterion: emissions via the
// new operator.Context allocate nothing in steady state — with the obs
// registry attached (histograms live, sampling off), so the pin covers the
// instrumented hot path — while the legacy adapter pays at least one slice
// per operator hop.
func TestEmitPathZeroAllocs(t *testing.T) {
	n := emitBenchNode(false, obs.NewRegistry(), func(*tuple.Tuple) {})
	p := n.pipe.Load()
	idx := p.opIndex("src")
	tt := &tuple.Tuple{Seq: 1, Size: 64, Value: 1.0}
	n.runOp(p, idx, "", tt, noStamp) // settle any first-call laziness
	allocs := testing.AllocsPerRun(200, func() {
		n.runOp(p, idx, "", tt, noStamp)
	})
	if allocs != 0 {
		t.Fatalf("emit-context path allocates %.1f objects/op, want 0", allocs)
	}

	ln := emitBenchNode(true, obs.NewRegistry(), func(*tuple.Tuple) {})
	lp := ln.pipe.Load()
	lidx := lp.opIndex("src")
	ln.runOp(lp, lidx, "", tt, noStamp)
	legacy := testing.AllocsPerRun(200, func() {
		ln.runOp(lp, lidx, "", tt, noStamp)
	})
	if legacy == 0 {
		t.Fatal("legacy adapter reported 0 allocs/op: benchmark harness lost its contrast")
	}
}

// TestDerivingEmitPathZeroAllocs extends the pin to operators that derive
// tuples: a Map that rewrites its input and a KeyTag both carve their
// output from the context's slab, so a tuple through the chain costs two
// slab carves and, amortised, no allocation.
func TestDerivingEmitPathZeroAllocs(t *testing.T) {
	var last *tuple.Tuple
	n := chainNode(func(id string) operator.Operator {
		switch id {
		case "m1":
			return operator.NewMap(id, func(ctx *operator.Context, in *tuple.Tuple) *tuple.Tuple {
				out := ctx.Clone(in)
				out.Size++
				return out
			})
		case "m2":
			return operator.NewKeyTag(id, func(*tuple.Tuple) string { return "k" })
		}
		return operator.NewPassthrough(id)
	}, obs.NewRegistry(), func(out *tuple.Tuple) { last = out })
	p := n.pipe.Load()
	idx := p.opIndex("src")
	tt := &tuple.Tuple{Seq: 1, Size: 64, Kind: "in", Value: 1.0}
	n.runOp(p, idx, "", tt, noStamp)
	allocs := testing.AllocsPerRun(200, func() {
		n.runOp(p, idx, "", tt, noStamp)
	})
	if allocs != 0 {
		t.Fatalf("deriving emit path allocates %.1f objects/op, want 0", allocs)
	}
	if last == tt || last.Kind != "k" || last.Size != 65 || tt.Kind != "in" || tt.Size != 64 {
		t.Fatalf("derived %+v from %+v: want a rewritten copy and an untouched input", *last, *tt)
	}
}

// TestEmitBenchDelivers sanity-checks the shared harness: every driven
// tuple reaches the sink on both contracts.
func TestEmitBenchDelivers(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		res := RunEmitBench(legacy, 500)
		if res.Emitted != 500 {
			t.Fatalf("legacy=%v: %d of 500 tuples reached the sink", legacy, res.Emitted)
		}
	}
}
