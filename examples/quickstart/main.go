// Quickstart: a three-operator pipeline (sensor source -> smoother -> sink)
// declared with the typed stream builder, on a five-phone region under
// MobiStreams fault tolerance. It ingests readings on a workload schedule,
// rides through a checkpoint, survives a mid-run phone failure and prints
// the recovered output stream.
package main

import (
	"fmt"
	"time"

	"mobistreams"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/internal/workload"
	"mobistreams/stream"
)

// smoother is a custom stateful operator on the emit-context contract: an
// exponential moving average whose results are pushed straight into the
// node's compiled pipeline — no per-tuple emission slice.
type smoother struct {
	operator.Base
	ewma float64
	n    uint64
}

func (s *smoother) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	v, _ := t.Value.(float64)
	if s.n == 0 {
		s.ewma = v
	} else {
		s.ewma = 0.8*s.ewma + 0.2*v
	}
	s.n++
	out := ctx.Clone(t) // derive with the context; the input stays untouched
	out.Value = s.ewma
	ctx.Emit(out)
	return nil
}

func (s *smoother) Cost(*tuple.Tuple) time.Duration { return 50 * time.Millisecond }

func (s *smoother) Snapshot() ([]byte, error) {
	return []byte(fmt.Sprintf("%g %d", s.ewma, s.n)), nil
}

func (s *smoother) Restore(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%g %d", &s.ewma, &s.n)
	return err
}

func (s *smoother) StateSize() int { return 16 }

func main() {
	p, err := stream.From[float64]("sensor", stream.On("n1")).
		Via("smooth", func() operator.Operator {
			return &smoother{Base: operator.Base{Name: "smooth"}}
		}, stream.On("n2")).
		Sink("out", func(v float64) {
			fmt.Printf("  -> smoothed reading %.2f\n", v)
		}, stream.On("n3")).
		Build()
	if err != nil {
		panic(err) // wiring bugs surface here, at build time
	}

	sys := mobistreams.NewSystem(mobistreams.SystemConfig{
		Speedup:          100, // 1 simulated minute ~ 0.6 s of wall time
		CheckpointPeriod: 30 * time.Second,
	})
	region, err := sys.AddRegion(mobistreams.RegionSpec{ID: "demo", Pipeline: p, Scheme: mobistreams.MS, Phones: 5})
	if err != nil {
		panic(err)
	}
	sys.Start()
	defer sys.Stop()
	clk := sys.Clock()

	fmt.Println("ingesting readings every 2 simulated seconds...")
	gen := workload.NewGenerator(clk)
	defer gen.Stop()
	gen.Every(2*time.Second, 1, func(i int) {
		region.Ingest("sensor", float64(20+i%20), 512, "reading")
	})

	clk.Sleep(20 * time.Second)
	fmt.Println("triggering a checkpoint...")
	region.TriggerCheckpoint()
	clk.Sleep(15 * time.Second)
	fmt.Printf("committed checkpoint version: %d\n", region.Committed())

	fmt.Println("crashing the phone hosting the smoother...")
	if err := region.InjectFailure("n2"); err != nil {
		panic(err)
	}
	clk.Sleep(80 * time.Second) // detection + recovery + catch-up
	fmt.Printf("recoveries: %d, unique outputs: %d, mean latency: %v\n",
		region.Recoveries(), region.Outputs(), region.MeanLatency().Round(time.Millisecond))
}
