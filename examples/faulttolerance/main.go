// Fault tolerance walkthrough: the Fig. 5 diamond graph under MobiStreams,
// hit by a three-phone burst failure and then a departure, printing what
// the protocol does at each step — token checkpoints, broadcast
// persistence, parallel restoration, source replay, urgent mode and state
// transfer.
package main

import (
	"fmt"
	"time"

	"mobistreams"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/stream"
)

func main() {
	// The Fig. 5 diamond, declared fluently: A -> B fans out to C and D,
	// which Merge back into the join E. Each stage is pinned to its own
	// slot (phone); the builder compiles the same graph + registry the
	// hand-wired API used to assemble.
	a := stream.From[int]("A", stream.On("n1"))
	b := a.Via("B", func() operator.Operator { return operator.NewPassthrough("B") }, stream.On("n2"))
	c := b.Map("C", func(v int) int { return v }, stream.On("n3"))
	d := b.Map("D", func(v int) int { return v }, stream.On("n4"))
	e := stream.Merge[int]("E", func() operator.Operator {
		return operator.NewJoin("E", "C", "D", func(ctx *operator.Context, l, _ *tuple.Tuple) *tuple.Tuple { return ctx.Clone(l) })
	}, []stream.Upstream{c, d}, stream.On("n5"))
	p, err := e.Build()
	if err != nil {
		panic(err)
	}

	sys := mobistreams.NewSystem(mobistreams.SystemConfig{
		Speedup:          200,
		CheckpointPeriod: 45 * time.Second,
	})
	region, err := sys.AddRegion(mobistreams.PipelineSpec("r1", p, mobistreams.MS, 10))
	if err != nil {
		panic(err)
	}
	sys.Start()
	defer sys.Stop()
	clk := sys.Clock()

	feed := func(n int) {
		for i := 0; i < n; i++ {
			region.Ingest("A", i, 2048, "item")
			clk.Sleep(time.Second)
		}
	}

	fmt.Println("== steady state: 30 tuples through the diamond")
	feed(30)
	clk.Sleep(5 * time.Second)
	fmt.Printf("outputs: %d (exactly once through the C/D join)\n", region.Outputs())

	fmt.Println("\n== waiting for a token-triggered checkpoint to commit")
	region.TriggerCheckpoint()
	for region.Committed() == 0 {
		clk.Sleep(2 * time.Second)
	}
	fmt.Printf("checkpoint v%d committed: every phone now holds every node's state\n", region.Committed())

	fmt.Println("\n== burst failure: three phones crash simultaneously")
	for _, slot := range []string{"n2", "n3", "n4"} {
		if err := region.InjectFailure(slot); err != nil {
			panic(err)
		}
	}
	feed(30)
	clk.Sleep(90 * time.Second)
	fmt.Printf("recoveries: %d; outputs now: %d; region dead: %v\n",
		region.Recoveries(), region.Outputs(), region.Dead())

	fmt.Println("\n== mobility: the phone hosting the join drives away")
	if err := region.InjectDeparture("n5"); err != nil {
		panic(err)
	}
	feed(20)
	clk.Sleep(60 * time.Second)
	rep := region.Report()
	fmt.Printf("after departure handoff: outputs %d, mean latency %v\n",
		rep.Tuples, rep.MeanLatency.Round(time.Millisecond))
	fmt.Println("\ndone: the region survived a 3-phone burst failure and a departure")
}
