package node

import (
	"runtime"
	"time"

	"mobistreams/internal/obs"
	"mobistreams/internal/tuple"
)

// obsBenchResult quantifies what observability costs on the emit hot path,
// measured on the same compiled chain as RunEmitBench in three modes:
// no registry at all, registry attached with sampling off (the production
// steady state), and every tuple traced (the worst case). Tuples are timed
// as the executor times its items.
type obsBenchResult struct {
	Iters int
	// OffNsPerOp / HistNsPerOp / TraceNsPerOp are per-tuple latencies for
	// the three modes.
	OffNsPerOp   float64
	HistNsPerOp  float64
	TraceNsPerOp float64
	// HistAllocsPerOp is the sampling-off allocation count — the PR 4/5
	// zero-allocs invariant with instrumentation compiled in; the gate
	// pins it at 0.
	HistAllocsPerOp float64
	// TraceAllocsPerOp is the every-tuple-traced allocation count
	// (span recording allocates; reported, not pinned).
	TraceAllocsPerOp float64
	// OverheadPct is (hist - off) / off * 100: the always-on histogram
	// tax relative to the uninstrumented path.
	OverheadPct float64
	// Spans is the number of spans the traced mode recorded (bounded by
	// the tracer's buffer; overflow counts as drops, not allocations).
	Spans int
}

// obsBenchMode drives iters tuples through the compiled chain under one
// observability mode and reports per-op latency and allocations.
func obsBenchMode(reg *obs.Registry, traceEvery, iters int) (nsPerOp, allocsPerOp float64) {
	n := emitBenchNode(reg, func(*tuple.Tuple) {})
	if reg != nil {
		reg.Tracer.SetSampleEvery(traceEvery)
	}
	p := n.pipe.Load()
	idx := p.opIndex("src")
	t := &tuple.Tuple{Seq: 1, Size: 64, Value: 1.0}
	for i := 0; i < 128; i++ {
		n.runOp(p, idx, "", t, noStamp)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	for i := 0; i < iters; i++ {
		if traceEvery > 0 {
			// The executor stamps the ambient trace context per dequeued
			// item; the bench replicates that handshake.
			if tc, ok := n.tracer.Sample(uint64(i)); ok {
				n.curTrace = tc
			} else {
				n.curTrace = obs.SpanCtx{}
			}
		}
		if reg != nil { // the chain's one queue is its external one
			n.opWeight = p.timing[0].weight(n.curTrace.ID != 0)
		}
		n.runOp(p, idx, "", t, noStamp)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	n.curTrace = obs.SpanCtx{}
	return float64(elapsed.Nanoseconds()) / float64(iters),
		float64(ms.Mallocs-m0) / float64(iters)
}

// RunObsBench measures the instrumentation overhead the observability
// layer adds to the tuple hot path. Exported for the benchmark ledger's
// obs.emit_overhead_pct row (benchmark/micro.go).
func RunObsBench(iters int) obsBenchResult {
	if iters <= 0 {
		iters = 200000
	}
	res := obsBenchResult{Iters: iters}
	res.OffNsPerOp, _ = obsBenchMode(nil, 0, iters)
	histReg := obs.NewRegistry()
	res.HistNsPerOp, res.HistAllocsPerOp = obsBenchMode(histReg, 0, iters)
	traceReg := obs.NewRegistry()
	res.TraceNsPerOp, res.TraceAllocsPerOp = obsBenchMode(traceReg, 1, iters)
	res.Spans = len(traceReg.Tracer.Spans())
	if res.OffNsPerOp > 0 {
		res.OverheadPct = (res.HistNsPerOp - res.OffNsPerOp) / res.OffNsPerOp * 100
	}
	return res
}
