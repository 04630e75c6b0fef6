package controller

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
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

// Hosts that are reachable but silent are noted within one PingTimeout of
// the round that pings them: the round pings every slot's host at once and
// judges them at one deadline, so a debounce shorter than the timeout still
// sees both in one recovery batch.
func TestSilentHostsNotedInOneTimeout(t *testing.T) {
	const interval, timeout = time.Second, 4 * time.Second
	c, r := newTestRegion(t, 50, Config{
		CheckpointPeriod: time.Hour,
		PingInterval:     interval,
		PingTimeout:      timeout,
		DebounceWindow:   time.Second,
	})
	start := c.clk.Now()
	// Both slot hosts stop reading their inboxes before the first round
	// (20 ms of wall time away); their phones stay up, so a ping reaches
	// them and goes unanswered.
	for _, slot := range []string{"n1", "n2"} {
		pid, ok := r.Placement(slot)
		if !ok {
			t.Fatalf("slot %s has no host", slot)
		}
		r.Node(pid).Stop()
	}
	for deadline := time.Now().Add(10 * time.Second); c.Recoveries("r1") == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no recovery")
		}
		time.Sleep(time.Millisecond)
	}
	events := r.Obs().Journal.Events()
	i := slices.IndexFunc(events, func(e obs.Event) bool {
		return e.Kind == "plan.propose" && strings.Contains(e.Detail, "recover")
	})
	if i < 0 {
		t.Fatal("no recovery plan journaled")
	}
	first := events[i]
	if !strings.HasSuffix(first.Detail, "recover ms k=2") {
		t.Fatalf("first recovery %q, want both silent hosts in one batch (k=2)", first.Detail)
	}
	// The batch's first failure was noted at the round's deadline; the
	// slack covers sending the pings and wall-clock overshoot.
	noted := read(c, "r1", func(m *managed) time.Duration { return m.failSince }) - start
	if limit := interval + timeout + timeout/2; noted > limit {
		t.Fatalf("hosts noted %v after Start, want within %v (one round and one timeout)", noted, limit)
	}
}
