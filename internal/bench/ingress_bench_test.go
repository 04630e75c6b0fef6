package bench

import (
	"fmt"
	"testing"
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// ingressConfig parameterises the single-edge ingress micro-benchmark: a
// two-slot pipeline (source slot -> sink slot) flooded with small tuples,
// isolating the node emission/delivery hot path that edge batching
// optimises.
type ingressConfig struct {
	// Tuples is the number of tuples pushed through the edge.
	Tuples int
	// QoS configures edge batching (MaxBatchMsgs 1 for the baseline).
	QoS node.QoS
	// OnOutput, when non-nil, observes each delivered tuple in order.
	OnOutput func(*tuple.Tuple)
}

const (
	// ingressTupleBytes: small telemetry tuples, the worst case for
	// per-message overhead.
	ingressTupleBytes = 256
	// ingressSpeedup is low enough that modelled airtime dominates scheduler
	// noise in the simulated-time results.
	ingressSpeedup = 100
	// ingressMaxBatchMsgs bounds a batch: at this speedup a full batch's
	// airtime must stay inside the scaled clock's spin window, or OS timer
	// overshoot (hundreds of µs of wall time per sleep) leaks into the
	// simulated-time results and swamps the medium model.
	ingressMaxBatchMsgs = 12
)

// ingressWiFi models a realistic per-frame cost (MAC/PHY framing,
// contention, link ACK) that batching amortises.
var ingressWiFi = simnet.WiFiConfig{BitsPerSecond: 3e6, FrameOverhead: 600, PropDelay: 3 * time.Millisecond}

// ingressResult reports one ingress run.
type ingressResult struct {
	Delivered int64
	// SimTuplesPerSec is throughput in simulated time — the medium-level
	// number the paper's figures are denominated in.
	SimTuplesPerSec float64
	// Flushes and MeanBatch summarise how the batcher coalesced.
	Flushes   int64
	MeanBatch float64
}

// ingressGraph is the minimal cross-slot pipeline: one source operator on
// slot i1, one sink operator on slot i2, a single edge between them.
func ingressGraph() (*graph.Graph, operator.Registry, error) {
	var b graph.Builder
	b.AddOperator("IS", "i1").AddOperator("IK", "i2").Chain("IS", "IK")
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	reg := operator.Registry{
		"IS": func() operator.Operator { return operator.NewPassthrough("IS") },
		"IK": func() operator.Operator { return operator.NewPassthrough("IK") },
	}
	return g, reg, nil
}

// runIngress floods the single-edge pipeline and reports throughput.
func runIngress(cfg ingressConfig) (ingressResult, error) {
	if cfg.QoS.MaxBatchMsgs == 0 {
		cfg.QoS.MaxBatchMsgs = ingressMaxBatchMsgs
	}
	g, reg, err := ingressGraph()
	if err != nil {
		return ingressResult{}, err
	}
	d := deploy.New(ingressSpeedup, paperCell, controller.Config{})
	clk := d.Clock
	rcfg := region.Config{
		ID:       "ingress",
		Graph:    g,
		Registry: reg,
		Scheme:   ft.BaseScheme,
		Phones:   2,
		WiFi:     ingressWiFi,
		// The flood outlives a stock battery; energy is not under test.
		PhoneCfg: phone.Config{BatteryJoules: 1e12},
		QoS:      cfg.QoS,
	}
	if cfg.OnOutput != nil {
		out := cfg.OnOutput
		rcfg.OnSinkOutput = func(_ simnet.NodeID, t *tuple.Tuple) { out(t) }
	}
	r, err := d.AddRegion(rcfg)
	if err != nil {
		return ingressResult{}, err
	}
	d.Start()
	defer d.Stop()

	simStart := clk.Now()
	for i := 0; i < cfg.Tuples; i++ {
		r.Ingest("IS", i, ingressTupleBytes, "ingress")
	}
	// All tuples are in flight; wait for the sink to drain them.
	deadline := time.Now().Add(60 * time.Second)
	for r.Outputs() < uint64(cfg.Tuples) {
		if time.Now().After(deadline) {
			return ingressResult{}, fmt.Errorf("ingress: delivered %d of %d tuples before wall deadline",
				r.Outputs(), cfg.Tuples)
		}
		time.Sleep(100 * time.Microsecond)
	}
	res := ingressResult{
		Delivered: int64(r.Outputs()),
		Flushes:   r.BatchStats().Flushes(),
		MeanBatch: r.BatchStats().Mean(),
	}
	if simElapsed := clk.Now() - simStart; simElapsed > 0 {
		res.SimTuplesPerSec = float64(res.Delivered) / simElapsed.Seconds()
	}
	return res, nil
}

// TestIngressBatchingThroughput is the tentpole acceptance check: with
// edge batching on, the single-edge pipeline must sustain at least 2x the
// unbatched tuple throughput in simulated time (per-frame medium overhead
// amortised across coalesced sends), delivering every tuple in order.
func TestIngressBatchingThroughput(t *testing.T) {
	const n = 400
	// Race instrumentation inflates the scaled clock's sleep overshoot,
	// which leaks wall time into the simulated results; keep the hard
	// ratio for uninstrumented builds only.
	want := 2.0
	if raceEnabled {
		want = 1.2
	}
	// The two runs pace simulated time against the wall clock back to
	// back, so CPU contention from sibling test packages can starve one
	// run's flush timers and compress the ratio. Retry before declaring a
	// regression — a genuine batching regression fails every attempt, a
	// scheduling stall does not. Correctness checks (full delivery, FIFO
	// order, real coalescing) stay hard on every attempt.
	const attempts = 3
	var lastErr string
	for i := 0; i < attempts; i++ {
		base, err := runIngress(ingressConfig{Tuples: n, QoS: node.QoS{MaxBatchMsgs: 1}})
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		batched, err := runIngress(ingressConfig{
			Tuples:   n,
			OnOutput: func(tp *tuple.Tuple) { seqs = append(seqs, tp.Seq) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if base.Delivered != n || batched.Delivered != n {
			t.Fatalf("delivered base=%d batched=%d, want %d", base.Delivered, batched.Delivered, n)
		}
		if len(seqs) != n {
			t.Fatalf("observed %d outputs, want %d", len(seqs), n)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("output %d has seq %d: batching broke edge FIFO order", i, s)
			}
		}
		if batched.MeanBatch < 2 {
			t.Fatalf("mean batch = %.1f, batching never coalesced", batched.MeanBatch)
		}
		ratio := batched.SimTuplesPerSec / base.SimTuplesPerSec
		t.Logf("attempt %d: unbatched %.0f t/s, batched %.0f t/s (%.2fx, mean batch %.1f)",
			i+1, base.SimTuplesPerSec, batched.SimTuplesPerSec, ratio, batched.MeanBatch)
		if ratio >= want {
			return
		}
		lastErr = fmt.Sprintf("batched/unbatched throughput = %.2fx, want >= %.1fx", ratio, want)
	}
	t.Fatal(lastErr)
}

func benchIngress(b *testing.B, qos node.QoS) {
	b.Helper()
	res, err := runIngress(ingressConfig{Tuples: b.N, QoS: qos})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.SimTuplesPerSec, "sim_tuples/s")
	if res.Flushes > 0 {
		b.ReportMetric(res.MeanBatch, "msgs/batch")
	}
}

// BenchmarkIngressUnbatched measures the per-message delivery path: every
// emission is its own network send.
func BenchmarkIngressUnbatched(b *testing.B) {
	benchIngress(b, node.QoS{MaxBatchMsgs: 1})
}

// BenchmarkIngressBatched measures the coalesced delivery path (default
// batching bounds).
func BenchmarkIngressBatched(b *testing.B) {
	benchIngress(b, node.QoS{})
}
