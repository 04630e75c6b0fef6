package controller

import (
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// A ping still waiting for its answer when the controller stops says
// nothing about the phone: Stop must not start a recovery.
func TestStopDuringPingStartsNoRecovery(t *testing.T) {
	var b graph.Builder
	b.AddOperator("src", "n1").AddOperator("out", "n2")
	b.Connect("src", "out")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewScaled(1000)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{UpBitsPerSecond: 8e6, DownBitsPerSecond: 8e6})
	c := New(Config{
		Clock: clk, Cell: cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Second,
		PingTimeout:      time.Hour, // the ping to the silent phone outlasts the test
		DebounceWindow:   time.Millisecond,
	})
	r, err := region.New(region.Config{
		ID:    "r1",
		Graph: g,
		Registry: operator.Registry{
			"src": func() operator.Operator { return operator.NewPassthrough("src") },
			"out": func() operator.Operator { return operator.NewPassthrough("out") },
		},
		Scheme:       ft.MSScheme,
		Phones:       4,
		Clock:        clk,
		WiFi:         simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:         cell,
		ControllerID: c.ID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddRegion(r)
	r.Start()
	defer r.Stop()
	// The source's host stops reading its inbox, so the first ping of the
	// first round (slots go in name order) waits for an answer that never
	// comes.
	pid, ok := r.Placement("n1")
	if !ok {
		t.Fatal("slot n1 has no host")
	}
	r.Node(pid).Stop()
	c.Start()
	for deadline := time.Now().Add(5 * time.Second); cell.Counters.Messages(simnet.ClassControl) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the controller sent no ping")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	if n := c.Recoveries("r1"); n != 0 {
		t.Fatalf("stopping the controller mid-ping started %d recoveries", n)
	}
}
