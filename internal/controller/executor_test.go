package controller

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/operator"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// newTestRegion starts a two-slot ms region under a controller whose
// pings and checkpoints stay out of the way (an hour apart).
func newTestRegion(t *testing.T, speedup float64) (*Controller, *region.Region) {
	t.Helper()
	var b graph.Builder
	b.AddOperator("src", "n1").AddOperator("out", "n2")
	b.Connect("src", "out")
	return startRegion(t, speedup, &b, operator.Registry{
		"src": func() operator.Operator { return operator.NewPassthrough("src") },
		"out": func() operator.Operator { return operator.NewPassthrough("out") },
	}, 4)
}

// startRegion starts region r1 of the given graph on phones phones under a
// controller whose pings and checkpoints stay out of the way.
func startRegion(t *testing.T, speedup float64, b *graph.Builder, reg operator.Registry, phones int) (*Controller, *region.Region) {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewScaled(speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{UpBitsPerSecond: 8e6, DownBitsPerSecond: 8e6})
	c := New(Config{
		Clock: clk, Cell: cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Hour,
	})
	r, err := region.New(region.Config{
		ID:           "r1",
		Graph:        g,
		Registry:     reg,
		Scheme:       ft.MSScheme,
		Phones:       phones,
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
	t.Cleanup(r.Stop)
	c.Start()
	t.Cleanup(c.Stop)
	return c, r
}

// planJournal lists the region journal's plan.* entries as "kind detail".
func planJournal(r *region.Region) []string {
	var got []string
	for _, e := range r.Obs().Journal.Events() {
		if strings.HasPrefix(e.Kind, "plan.") {
			got = append(got, e.Kind+" "+e.Detail)
		}
	}
	return got
}

// Stop during a failure's debounce window returns at once and starts no
// recovery: the executor waits out the window on a clock timer that Stop
// interrupts, and the recovery it was waiting to start never runs.
func TestStopDuringDebounceStartsNoRecovery(t *testing.T) {
	c, r := newTestRegion(t, 1)
	victim, ok := r.Placement("n2")
	if !ok {
		t.Fatal("slot n2 has no host")
	}
	c.handleReport(node.Report{Type: node.RepFailure, Phone: "r1/p1", Observed: victim})
	start := time.Now()
	c.Stop()
	// The default debounce window is 2 s at speedup 1.
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Stop took %v: it waited out the debounce window", took)
	}
	if n := c.Recoveries("r1"); n != 0 {
		t.Fatalf("a recovery started after Stop: recoveries = %d", n)
	}
}

// A restore whose report never comes is journaled as a failed step. It is
// not critical, so the plan does not abort: a recovery goes on to resume.
func TestRestoreTimeoutJournalsFailedStep(t *testing.T) {
	c, r := newTestRegion(t, 2000)
	silent, _ := r.Placement("n2")
	r.Node(silent).Stop()
	plan := &placement.Plan{Region: "r1", Version: 1, Cause: "test", Steps: []placement.Step{
		{Kind: placement.StepRestore, Phones: []simnet.NodeID{silent}, Version: 1, Reason: "local-mrc"},
	}}
	if _, ok := c.runPlan(c.lookup("r1"), plan); !ok {
		t.Fatal("a restore timeout aborted the plan")
	}
	got := planJournal(r)
	want := []string{
		"plan.propose 1 steps test",
		"plan.step 1/1 ok=false restore v1 [" + string(silent) + "] local-mrc",
		"plan.commit 1 steps test",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal = %q\nwant      %q", got, want)
	}
}
