package bench

import (
	"fmt"
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

// IngressConfig parameterises the single-edge ingress micro-benchmark: a
// two-slot pipeline (source slot -> sink slot) flooded with small tuples,
// isolating the node emission/delivery hot path that edge batching
// optimises.
type IngressConfig struct {
	// Tuples is the number of tuples pushed through the edge.
	Tuples int
	// QoS configures edge batching (set DisableBatching for the baseline).
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

// IngressResult reports one ingress run.
type IngressResult struct {
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

// RunIngress floods the single-edge pipeline and reports throughput.
func RunIngress(cfg IngressConfig) (IngressResult, error) {
	if !cfg.QoS.DisableBatching && cfg.QoS.MaxBatchMsgs == 0 {
		cfg.QoS.MaxBatchMsgs = ingressMaxBatchMsgs
	}
	g, reg, err := ingressGraph()
	if err != nil {
		return IngressResult{}, err
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
		return IngressResult{}, err
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
			return IngressResult{}, fmt.Errorf("ingress: delivered %d of %d tuples before wall deadline",
				r.Outputs(), cfg.Tuples)
		}
		time.Sleep(100 * time.Microsecond)
	}
	res := IngressResult{
		Delivered: int64(r.Outputs()),
		Flushes:   r.BatchStats().Flushes(),
		MeanBatch: r.BatchStats().Mean(),
	}
	if simElapsed := clk.Now() - simStart; simElapsed > 0 {
		res.SimTuplesPerSec = float64(res.Delivered) / simElapsed.Seconds()
	}
	return res, nil
}
