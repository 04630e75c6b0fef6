package controller

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/placement"
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

// A crashed slot host that nobody reports (no tuple flows, the ping rounds
// are an hour apart) joins the batch of a failure noted in the same burst:
// the recovery job opens with a ping round's sends, and a sealed endpoint
// refuses its ping at once.
func TestCrashedHostsJoinTheRecoveryBatch(t *testing.T) {
	c, r := newTestRegion(t, 50, Config{
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Hour,
		DebounceWindow:   time.Second,
	})
	var hosts []simnet.NodeID
	for _, slot := range []string{"n1", "n2"} {
		pid, ok := r.Placement(slot)
		if !ok {
			t.Fatalf("slot %s has no host", slot)
		}
		r.FailPhone(pid)
		hosts = append(hosts, pid)
	}
	c.noteFailure(c.lookup("r1"), hosts[0]) // one neighbour's report
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if got := planJournal(r); len(got) > 0 {
			if !strings.HasPrefix(got[0], "plan.propose") || !strings.HasSuffix(got[0], "recover ms k=2") {
				t.Fatalf("first plan %q, want both crashed hosts in one batch (k=2)", got[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery planned")
		}
	}
}

// A ping round holds the executor for one send's latency, not one per
// host: the round goes out in one fan-out. With a 1 s cellular latency and
// six slot hosts, a checkpoint triggered just after the ping tick waits
// out the rest of the round's sends, then its own token's; serial pings
// would hold it for about six latencies.
func TestPingRoundHoldsTheExecutorOneLatency(t *testing.T) {
	const latency, interval = time.Second, 5 * time.Second
	var b graph.Builder
	reg := operator.Registry{}
	prev := ""
	for i := 1; i <= 6; i++ {
		op := fmt.Sprintf("op%d", i)
		b.AddOperator(op, fmt.Sprintf("n%d", i))
		if prev != "" {
			b.Connect(prev, op)
		}
		prev = op
		reg[op] = func() operator.Operator { return operator.NewPassthrough(op) }
	}
	c, _ := startRegion(t, 10, Config{CheckpointPeriod: time.Hour, PingInterval: interval}, &b, reg, 8, latency)
	start := c.clk.Now()
	for c.clk.Now()-start < interval+latency/5 {
		time.Sleep(time.Millisecond)
	}
	at := c.clk.Now()
	if v := c.TriggerCheckpoint("r1"); v == 0 {
		t.Fatal("no checkpoint round ran")
	}
	took := c.clk.Now() - at
	t.Logf("checkpoint triggered %v after the ping tick returned in %v simulated", at-start-interval, took)
	if took > 3*latency {
		t.Fatalf("the checkpoint waited %v simulated behind a ping round, want under %v", took, 3*latency)
	}
}

// A pause over k silent phones fails at one deadline, not k of them: the
// command goes to every phone at once and the answers share one timer.
func TestPauseOverSilentPhonesWaitsOneDeadline(t *testing.T) {
	c, r := newTestRegion(t, 50, quiet)
	phones := r.Members()[:3]
	for _, id := range phones {
		r.Node(id).Stop() // reachable, but it never answers
	}
	plan := &placement.Plan{Region: "r1", Version: 1, Cause: "test", Steps: []placement.Step{
		{Kind: placement.StepPause, Phones: phones, Reason: "test"},
	}}
	c.runPlan(c.lookup("r1"), plan)
	var propose, step int64
	for _, e := range r.Obs().Journal.Events() {
		switch e.Kind {
		case "plan.propose":
			propose = e.At
		case "plan.step":
			step = e.At
			if !strings.Contains(e.Detail, "ok=false") {
				t.Fatalf("a pause nobody answered journaled %q", e.Detail)
			}
		}
	}
	// The pause deadline is 10 s; three serial waits would take 30 s.
	took := time.Duration(step - propose)
	t.Logf("pause over %d silent phones failed after %v simulated", len(phones), took)
	if took > 15*time.Second {
		t.Fatalf("the pause step took %v simulated over %d silent phones, want one 10 s deadline", took, len(phones))
	}
}
