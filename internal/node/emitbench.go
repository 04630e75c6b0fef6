package node

import (
	"runtime"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// emitBenchResult summarises one emit-path measurement: the per-tuple
// allocation count and latency of driving a tuple through a compiled
// single-slot chain to an external sink.
type emitBenchResult struct {
	Iters       int
	AllocsPerOp float64
	NsPerOp     float64
	Emitted     uint64
}

// emitBenchNode assembles the benchmark harness: a three-operator chain
// (src -> m1 -> m2 -> out) compiled onto one slot, so every emission runs
// the in-slot recursion of the compiled pipeline and the final operator
// publishes externally. The middle operators are identity Maps. A non-nil
// obs registry compiles the observability hooks in, exactly as a region
// does.
func emitBenchNode(reg *obs.Registry, onOut func(*tuple.Tuple)) *Node {
	identity := func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in }
	return chainNode(func(id string) operator.Operator {
		if id == "src" || id == "out" {
			return operator.NewPassthrough(id)
		}
		return operator.NewMap(id, identity)
	}, reg, onOut)
}

// chainNode compiles src -> m1 -> m2 -> out onto one slot from newOp. No
// goroutines are started; the caller drives runOp directly, exactly like
// the executor's steady-state path.
func chainNode(newOp func(id string) operator.Operator, reg *obs.Registry, onOut func(*tuple.Tuple)) *Node {
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("m1", "s1").
		AddOperator("m2", "s1").AddOperator("out", "s1")
	gb.Chain("src", "m1", "m2", "out")
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	opReg := operator.Registry{}
	for _, id := range g.Operators() {
		id := id
		opReg[id] = func() operator.Operator { return newOp(id) }
	}
	return New(Config{
		ID: "bench", Graph: g, Registry: opReg,
		Slot: "s1", OpIDs: g.OpsOnSlot("s1"),
		Clock: clock.NewScaled(1e6), Obs: reg, OnSinkOutput: onOut,
	})
}

// RunEmitBench measures the emit path for iters tuples (the steady state
// must not allocate at all). The bool selects nothing: operators have one
// processing contract, and the parameter stays only because the benchmark
// ledger calls RunEmitBench(false, n). The node carries a live obs
// registry with sampling off, so the 0-allocs pin covers the instrumented
// hot path — tracing compiled in, histograms recording, no tuple sampled.
// Exported so the benchmark ledger's node.emit_ns_per_tuple and
// node.emit_allocs_per_tuple rows (benchmark/micro.go) and the Go
// benchmarks share one harness.
func RunEmitBench(_ bool, iters int) emitBenchResult {
	var emitted uint64
	n := emitBenchNode(obs.NewRegistry(), func(*tuple.Tuple) { emitted++ })
	p := n.pipe.Load()
	idx := p.opIndex("src")
	t := &tuple.Tuple{Seq: 1, Size: 64, Value: 1.0}
	for i := 0; i < 128; i++ { // warm up lazily-grown state
		n.runOp(p, idx, "", t, noStamp)
	}
	emitted = 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	for i := 0; i < iters; i++ {
		n.runOp(p, idx, "", t, noStamp)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return emitBenchResult{
		Iters:       iters,
		AllocsPerOp: float64(ms.Mallocs-m0) / float64(iters),
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		Emitted:     emitted,
	}
}
