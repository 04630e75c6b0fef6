package region_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// diamondGraph is Fig. 5's five-node region: A -> B -> {C, D} -> E, where E
// joins the two branches by sequence number, so each input yields exactly
// one output.
func diamondGraph(t testing.TB) *graph.Graph {
	t.Helper()
	var b graph.Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").AddOperator("C", "n3").
		AddOperator("D", "n4").AddOperator("E", "n5")
	b.Connect("A", "B").Connect("B", "C").Connect("B", "D").
		Connect("C", "E").Connect("D", "E")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func diamondRegistry() operator.Registry {
	clone := func(ctx *operator.Context, in *tuple.Tuple) *tuple.Tuple { return ctx.Clone(in) }
	return operator.Registry{
		"A": func() operator.Operator { return operator.NewPassthrough("A") },
		"B": func() operator.Operator { return operator.NewPassthrough("B") },
		"C": func() operator.Operator { return operator.NewMap("C", clone) },
		"D": func() operator.Operator { return operator.NewMap("D", clone) },
		"E": func() operator.Operator {
			return operator.NewJoin("E", "C", "D", func(ctx *operator.Context, l, _ *tuple.Tuple) *tuple.Tuple { return ctx.Clone(l) })
		},
	}
}

type harness struct {
	clk  *clock.Scaled
	cell *simnet.Cellular
	ctrl *controller.Controller
	r    *region.Region
}

func newHarness(t testing.TB, scheme ft.Scheme, phones int) *harness {
	t.Helper()
	return newHarnessRegistry(t, scheme, phones, diamondRegistry())
}

func newHarnessRegistry(t testing.TB, scheme ft.Scheme, phones int, reg operator.Registry) *harness {
	t.Helper()
	speedup := 2000.0
	if raceEnabled {
		speedup = 300 // give race-instrumented goroutines wall time per simulated second
	}
	clk := clock.NewScaled(speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   8e6,
		DownBitsPerSecond: 8e6,
	})
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour, // tests trigger checkpoints explicitly
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
	})
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             diamondGraph(t),
		Registry:          reg,
		Scheme:            scheme,
		Phones:            phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: scheme.Kind == ft.MS,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()
	t.Cleanup(func() {
		r.Stop()
		ctrl.Stop()
	})
	return &harness{clk: clk, cell: cell, ctrl: ctrl, r: r}
}

func (h *harness) ingest(n int) {
	for i := 0; i < n; i++ {
		h.r.Ingest("A", fmt.Sprintf("v%d", i), 1024, "test")
	}
}

// waitCount polls until the region has produced at least want unique
// outputs or the wall deadline expires.
func (h *harness) waitCount(t testing.TB, want int64, wall time.Duration) int64 {
	t.Helper()
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		if got := int64(h.r.Outputs()); got >= want {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
	return int64(h.r.Outputs())
}

func (h *harness) waitCommitted(t testing.TB, v uint64, wall time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		if h.ctrl.Committed("r1") >= v {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

func TestPipelineFlowsBase(t *testing.T) {
	h := newHarness(t, ft.BaseScheme, 5)
	h.ingest(20)
	if got := h.waitCount(t, 20, 10*time.Second); got != 20 {
		t.Fatalf("outputs = %d, want 20", got)
	}
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d", d)
	}
}

func TestTokenCheckpointCommitsMS(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 6)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	v := h.ctrl.TriggerCheckpoint("r1")
	if v == 0 {
		t.Fatal("checkpoint did not start")
	}
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatalf("v%d never committed", v)
	}
	// Every alive phone must hold every slot's blob (§III-B: saved on
	// every node, including idle ones).
	slots := h.r.Graph().Slots()
	for _, id := range h.r.AlivePhones() {
		for _, slot := range slots {
			if _, err := h.r.Store(id).MaterializeBlob(v, slot); err != nil {
				t.Fatalf("phone %s cannot restore %s v%d: %v", id, slot, v, err)
			}
		}
	}
	// Block bursts take one inbox slot per airtime reservation, so the
	// default inbox holds a whole checkpoint round.
	if d := h.r.InboxDrops(); d != 0 {
		t.Fatalf("inbox drops = %d at %d-slot inboxes", d, simnet.DefaultInbox)
	}
}

// TestStopMidDisseminationReturnsPromptly stops a region while checkpoint
// disseminations wait on a bitmap query to a stopped peer: its endpoint is
// open, so the query is accepted, but nothing answers it. At speedup 1 the
// default broadcast.QueryTimeout is 30 s of wall time; Stop must not wait
// it out.
func TestStopMidDisseminationReturnsPromptly(t *testing.T) {
	r, err := region.New(region.Config{
		ID:        "r1",
		Graph:     diamondGraph(t),
		Registry:  diamondRegistry(),
		Scheme:    ft.MSScheme,
		Phones:    6,
		Clock:     clock.NewScaled(1),
		WiFi:      simnet.WiFiConfig{BitsPerSecond: 100e6},
		Broadcast: broadcast.Config{BlockSize: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	// p6 is idle and last in every peer list: each disseminating slot host
	// queries it after the others, and waits.
	r.Node("r1/p6").Stop()
	src, _ := r.Placement("n1")
	r.Node(src).InjectToken(1)
	for deadline := time.Now().Add(5 * time.Second); r.WiFi().Counters.Messages(simnet.ClassBitmap) == 0; {
		if time.Now().After(deadline) {
			r.Stop()
			t.Fatal("no bitmap query within 5 s of the token")
		}
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	start := time.Now()
	go func() {
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Region.Stop still waiting 1 s into a dissemination")
	}
	t.Logf("Stop returned after %v", time.Since(start))
}

// assertNoClockSleepers fails unless, within 100 ms, no goroutine's stack
// runs in internal/clock: every wait a stopped component armed was stopped
// with it.
func assertNoClockSleepers(t *testing.T) {
	t.Helper()
	var stacks []string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(100 * time.Millisecond); ; time.Sleep(time.Millisecond) {
		stacks = stacks[:0]
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "mobistreams/internal/clock.") {
				stacks = append(stacks, g)
			}
		}
		if len(stacks) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still wait in internal/clock 100 ms after Stop; the first:\n%s", len(stacks), stacks[0])
		}
	}
}

// An answered bitmap query leaves no timer behind: at speedup 1 with the
// default 30 s QueryTimeout, nothing of a stopped region still waits on the
// clock.
func TestRegionStopLeavesNoClockSleeper(t *testing.T) {
	r, err := region.New(region.Config{
		ID:        "r1",
		Graph:     diamondGraph(t),
		Registry:  diamondRegistry(),
		Scheme:    ft.MSScheme,
		Phones:    6,
		Clock:     clock.NewScaled(1),
		WiFi:      simnet.WiFiConfig{BitsPerSecond: 100e6},
		Broadcast: broadcast.Config{BlockSize: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	src, _ := r.Placement("n1")
	r.Node(src).InjectToken(1)
	// Two bitmap messages: a query and its answer, or two queries.
	for deadline := time.Now().Add(5 * time.Second); r.WiFi().Counters.Messages(simnet.ClassBitmap) < 2; {
		if time.Now().After(deadline) {
			r.Stop()
			t.Fatal("no bitmap query within 5 s of the token")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	assertNoClockSleepers(t)
}

// Neither an answered ping nor the periodic loops leave a timer behind
// Controller.Stop, at speedup 1 with the default ping timeout and
// checkpoint period.
func TestControllerStopLeavesNoClockSleeper(t *testing.T) {
	clk := clock.NewScaled(1)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{UpBitsPerSecond: 8e6, DownBitsPerSecond: 8e6})
	ctrl := controller.New(controller.Config{Clock: clk, Cell: cell, PingInterval: 20 * time.Millisecond})
	r, err := region.New(region.Config{
		ID:           "r1",
		Graph:        diamondGraph(t),
		Registry:     diamondRegistry(),
		Scheme:       ft.MSScheme,
		Phones:       6,
		Clock:        clk,
		WiFi:         simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:         cell,
		ControllerID: ctrl.ID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()
	// Two control messages: a ping and its answer, or two pings.
	for deadline := time.Now().Add(5 * time.Second); cell.Counters.Messages(simnet.ClassControl) < 2; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctrl.Stop()
	r.Stop()
	if cell.Counters.Messages(simnet.ClassControl) < 2 {
		t.Fatal("no ping round within 5 s")
	}
	assertNoClockSleepers(t)
}

func TestFailureRecoveryMS(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 7)
	h.ingest(15)
	if got := h.waitCount(t, 15, 10*time.Second); got != 15 {
		t.Fatalf("pre-checkpoint outputs = %d, want 15", got)
	}
	v := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("checkpoint never committed")
	}
	h.ingest(15)
	h.waitCount(t, 30, 10*time.Second)

	// Crash the phone hosting slot n3 (operator C).
	victim, ok := h.r.Placement("n3")
	if !ok {
		t.Fatal("no placement for n3")
	}
	h.r.FailPhone(victim)
	// Keep data flowing so the upstream detects the failure.
	h.ingest(15)
	deadline := time.Now().Add(20 * time.Second)
	for h.ctrl.Recoveries("r1") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.ctrl.Recoveries("r1") == 0 {
		t.Fatal("recovery never triggered")
	}
	// Wait for the sink to finish catch-up before the final batch:
	// tuples admitted mid-recovery are replayed and legitimately
	// discarded by catch-up suppression, which is batch 3's fate, not
	// batch 4's.
	deadline = time.Now().Add(30 * time.Second)
	for h.ctrl.CatchUpCount("r1", 1) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.ctrl.CatchUpCount("r1", 1) == 0 {
		t.Fatal("catch-up never completed")
	}
	h.ingest(15)
	// Batches 1, 2 and 4 (45 tuples) must be published exactly once.
	// Batch 3 flowed while the victim was dead: its results are
	// regenerated during catch-up, and the paper's sinks discard all
	// catch-up output (§III-D) — so those outputs are legitimately
	// dropped unless they were queued as fresh input during the pause.
	got := h.waitCount(t, 45, 30*time.Second)
	if got < 45 || got > 60 {
		t.Fatalf("outputs after recovery = %d, want 45..60", got)
	}
	// The replacement must host n3 now.
	repl, _ := h.r.Placement("n3")
	if repl == victim {
		t.Fatalf("slot n3 still on failed phone %s", victim)
	}
}

// TestSourceFailureMidRunRecoveryMS crashes the source host while it is
// executing the middle of a preservation run (small tuples ingested as a
// burst behind a paused executor, so a run holds many). The whole run was
// group-committed before its first tuple ran: every tuple the dead source
// emitted downstream must be in the log the replacement replays, and the
// sink's verdict is TestFailureRecoveryMS's.
func TestSourceFailureMidRunRecoveryMS(t *testing.T) {
	// 64-byte tuples: runs of 16, so the 21st of the burst is inside the
	// second, which was committed whole.
	sourceFailureMidBurst(t, 40, 21, 32)
}

// TestSourceFailureMidPipelineRecoveryMS is the same crash deep in a
// sustained burst, where the source's commit pipeline is two blocks deep:
// the source dies executing the third run with the fourth already committed
// behind it. Both are abandoned and both are in the replacement's log.
func TestSourceFailureMidPipelineRecoveryMS(t *testing.T) {
	sourceFailureMidBurst(t, 112, 40, 64)
}

// sourceFailureMidBurst checkpoints after 15 tuples, queues a burst of
// 64-byte tuples at the source, crashes its host inside the burst's
// stopAt-th tuple and recovers. The replacement's log must hold at least
// committed tuples of the burst and every one the dead source emitted.
func sourceFailureMidBurst(t *testing.T, burst, stopAt, committed int) {
	stopAt += 15
	reached, crashed := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	emitted := map[uint64]bool{} // post-checkpoint tuples that reached B
	reg := diamondRegistry()
	reg["A"] = func() operator.Operator {
		return operator.NewMap("A", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple {
			if in.Seq == uint64(stopAt) && !in.Replay {
				close(reached)
				<-crashed
			}
			return in
		})
	}
	reg["B"] = func() operator.Operator {
		return operator.NewMap("B", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple {
			if in.Seq > 15 && !in.Replay {
				mu.Lock()
				emitted[in.Seq] = true
				mu.Unlock()
			}
			return in
		})
	}
	h := newHarnessRegistry(t, ft.MSScheme, 7, reg)
	small := func(n int) {
		for i := 0; i < n; i++ {
			h.r.Ingest("A", i, 64, "test")
		}
	}
	small(15)
	if got := h.waitCount(t, 15, 10*time.Second); got != 15 {
		t.Fatalf("pre-checkpoint outputs = %d, want 15", got)
	}
	v := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("checkpoint never committed")
	}
	victim, ok := h.r.Placement("n1")
	if !ok {
		t.Fatal("no placement for n1")
	}
	src := h.r.Node(victim)
	src.PauseExec()
	small(burst)
	src.ResumeExec()
	<-reached
	// The executor is held inside the run; the flush timer ships what it
	// has emitted so far. Crash once all of that has reached B.
	sentBefore := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(emitted)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sentBefore() < stopAt-15-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.r.FailPhone(victim)
	close(crashed)

	deadline = time.Now().Add(30 * time.Second)
	for h.ctrl.CatchUpCount("r1", 1) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.ctrl.Recoveries("r1") == 0 || h.ctrl.CatchUpCount("r1", 1) == 0 {
		t.Fatalf("recoveries = %d, catch-ups = %d: source failure never recovered", h.ctrl.Recoveries("r1"), h.ctrl.CatchUpCount("r1", 1))
	}
	repl, _ := h.r.Placement("n1")
	if repl == victim {
		t.Fatalf("slot n1 still on failed phone %s", victim)
	}
	replayed := map[uint64]bool{}
	for _, tp := range h.r.Store(repl).SourceLogsFrom(v, "A") {
		if replayed[tp.Seq] {
			t.Fatalf("tuple %d is in the replacement's log twice", tp.Seq)
		}
		replayed[tp.Seq] = true
	}
	mu.Lock()
	for seq := range emitted {
		if seq <= uint64(15+burst) && !replayed[seq] {
			t.Errorf("tuple %d was emitted downstream by the dead source but is not in the replacement's log", seq)
		}
	}
	sent := len(emitted)
	mu.Unlock()
	if sent < stopAt-15-1 || len(replayed) < committed {
		t.Fatalf("dead source emitted %d tuples of the burst and the replacement's log holds %d, want at least %d and %d: the failure did not land where intended", sent, len(replayed), stopAt-15-1, committed)
	}

	small(15)
	// The 15 pre-checkpoint tuples and the 15 after catch-up are published
	// exactly once; the burst was in flight when the source died, and what
	// the replay regenerates of it is legitimately discarded by catch-up
	// suppression (§III-D).
	got := h.waitCount(t, 30, 30*time.Second)
	if got < 30 || got > int64(15+burst+15) {
		t.Fatalf("outputs after recovery = %d, want 30..%d", got, 15+burst+15)
	}
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("recovery published %d duplicates", d)
	}
}

// TestDeltaChainRecoveryMS drives two committed checkpoints so the second
// travels as a delta chained to the first, then crashes a phone: recovery
// must restore the slot from the materialised base+delta chain with no
// duplicated output — the restored node must not re-emit tuples the
// restored version already covers.
func TestDeltaChainRecoveryMS(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 7)
	h.ingest(15)
	if got := h.waitCount(t, 15, 10*time.Second); got != 15 {
		t.Fatalf("pre-checkpoint outputs = %d, want 15", got)
	}
	v1 := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v1, 15*time.Second) {
		t.Fatal("v1 never committed")
	}
	h.ingest(15)
	h.waitCount(t, 30, 10*time.Second)
	v2 := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v2, 15*time.Second) {
		t.Fatal("v2 never committed")
	}
	// The stateful slot's v2 blob must actually be a delta link, and the
	// chain must have survived v2's commit GC on every phone.
	victim, ok := h.r.Placement("n3")
	if !ok {
		t.Fatal("no placement for n3")
	}
	blob, ok := h.r.Store(victim).Blob(v2, "n3")
	if !ok {
		t.Fatalf("no v%d blob for n3", v2)
	}
	if !blob.IsDelta() || blob.Base != v1 {
		t.Fatalf("n3 v%d blob is not a delta over v%d (base %d)", v2, v1, blob.Base)
	}
	for _, id := range h.r.AlivePhones() {
		if _, err := h.r.Store(id).MaterializeBlob(v2, "n3"); err != nil {
			t.Fatalf("phone %s lost the n3 chain to commit GC: %v", id, err)
		}
	}

	h.ingest(15)
	h.waitCount(t, 45, 10*time.Second)
	h.r.FailPhone(victim)
	h.ingest(15)
	deadline := time.Now().Add(20 * time.Second)
	for h.ctrl.Recoveries("r1") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.ctrl.Recoveries("r1") == 0 {
		t.Fatal("recovery never triggered")
	}
	// Wait until the sink finishes catch-up (epoch 1) before the final
	// batch, so its delivery exercises the restored steady state rather
	// than racing the replay window.
	deadline = time.Now().Add(30 * time.Second)
	for h.ctrl.CatchUpCount("r1", 1) == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if h.ctrl.CatchUpCount("r1", 1) == 0 {
		t.Fatal("catch-up never completed")
	}
	h.ingest(15)
	// Batches 1-3 and 5 (60 tuples) are published exactly once; batch 4
	// flowed while the victim was dead and may be suppressed as catch-up.
	got := h.waitCount(t, 60, 30*time.Second)
	if got < 60 || got > 75 {
		t.Fatalf("outputs after chain recovery = %d, want 60..75", got)
	}
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("chain restore re-emitted %d covered tuples", d)
	}
	if repl, _ := h.r.Placement("n3"); repl == victim {
		t.Fatalf("slot n3 still on failed phone %s", victim)
	}
}

func TestRep2Failover(t *testing.T) {
	h := newHarness(t, ft.Rep2Scheme, 5)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	victim, _ := h.r.Placement("n3")
	h.r.FailPhone(victim)
	h.ingest(10)
	deadline := time.Now().Add(20 * time.Second)
	for h.ctrl.Recoveries("r1") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	h.ingest(10)
	got := h.waitCount(t, 25, 20*time.Second)
	if got < 25 {
		t.Fatalf("outputs after failover = %d, want >= 25", got)
	}
	repl, _ := h.r.Placement("n3")
	if repl == victim {
		t.Fatal("placement still on failed phone")
	}
}

func TestDistRecoveryExactlyOnce(t *testing.T) {
	h := newHarness(t, ft.Dist(1), 7)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	v := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("checkpoint never committed")
	}
	h.ingest(10)
	h.waitCount(t, 20, 10*time.Second)
	victim, _ := h.r.Placement("n3")
	h.r.FailPhone(victim)
	h.ingest(10)
	deadline := time.Now().Add(20 * time.Second)
	for h.ctrl.Recoveries("r1") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	h.ingest(10)
	// dist-1 with a single non-sink failure is exactly-once: upstream
	// retention covers the gap and edge sequences dedup the overlap.
	got := h.waitCount(t, 40, 30*time.Second)
	if got != 40 {
		t.Fatalf("outputs = %d, want exactly 40", got)
	}
}

// distCommitted runs the diamond on seven phones under dist-n (p6 and p7
// idle) through one committed checkpoint: 10 results before it and 10
// after, all published.
func distCommitted(t *testing.T, n int) *harness {
	t.Helper()
	h := newHarness(t, ft.Dist(n), 7)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	v := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("checkpoint never committed")
	}
	h.ingest(10)
	if got := h.waitCount(t, 20, 10*time.Second); got != 20 {
		t.Fatalf("outputs = %d, want 20", got)
	}
	if _, idle := h.r.Founding(); !slices.Equal(idle, []simnet.NodeID{"r1/p6", "r1/p7"}) {
		t.Fatalf("idle = %v, want [r1/p6 r1/p7]", idle)
	}
	return h
}

// recoverSlotHost fails slot's host and drives traffic until the
// controller has run a recovery or the region died, then ingests a last
// batch. It returns the failed host.
func recoverSlotHost(t *testing.T, h *harness, slot string) simnet.NodeID {
	t.Helper()
	victim, _ := h.r.Placement(slot)
	h.r.FailPhone(victim)
	h.ingest(10) // the upstream detects the failure sending these
	deadline := time.Now().Add(20 * time.Second)
	for h.ctrl.Recoveries("r1") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	h.ingest(10)
	return victim
}

// An idle phone that holds no copy fails and nothing reports it; then a
// slot host fails. dist-1 is judged on the one failure the controller was
// told of, so the region recovers exactly once instead of dying on a
// burst of two.
func TestUnnoticedIdleFailureDoesNotCountTowardTolerance(t *testing.T) {
	h := distCommitted(t, 1)
	h.r.FailPhone("r1/p7") // under dist-1 no slot persists to p7
	recoverSlotHost(t, h, "n3")
	if got := h.waitCount(t, 40, 30*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want exactly 40", got)
	}
	if h.ctrl.RegionDead("r1") {
		t.Fatal("the region died of a failure nobody reported")
	}
	if host, _ := h.r.Placement("n3"); host != "r1/p6" {
		t.Fatalf("n3 on %s, want r1/p6", host)
	}
}

// Under dist-2, n5 persists to p6 and p7. p6 fails unnoticed, then n5's
// host fails. The plan activates p6 first; the activate command goes
// unanswered (p6's endpoint is sealed), the executor replans onto p7, and
// the fetch skips the dead holder p6 for p7's own copy. The replan is the same recovery, counted once.
func TestUnnoticedHolderFailureFallsThroughToTheNextHolder(t *testing.T) {
	h := distCommitted(t, 2)
	h.r.FailPhone("r1/p6")
	recoverSlotHost(t, h, "n5")
	if got := h.waitCount(t, 40, 30*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want exactly 40", got)
	}
	if h.ctrl.RegionDead("r1") {
		t.Fatal("region died")
	}
	if host, _ := h.r.Placement("n5"); host != "r1/p7" {
		t.Fatalf("n5 on %s, want r1/p7", host)
	}
	if steps(h.r, "ok=false activate n5 r1/p6") != 1 || steps(h.r, "ok=true fetch-restore n5") != 1 {
		for _, e := range h.r.Obs().Journal.Events() {
			t.Logf("journal: %s slot=%s %s", e.Kind, e.Slot, e.Detail)
		}
		t.Fatal("want one failed activate on p6 and one fetch-restore that served")
	}
	if n := h.ctrl.Recoveries("r1"); n != 1 {
		t.Fatalf("recoveries = %d, want 1: one failure, replanned once", n)
	}
}

// Under dist-2, the idle p6 crashes without the region's record of
// failures learning of it (its node dies, its endpoint seals), then n5's
// host fails. The plan picks p6 as n5's replacement; its activate command
// goes unanswered, so the step fails, and the batch is planned again onto
// p7 without p6, which the executor took out of the idle pool.
func TestSilentReplacementFailsItsActivate(t *testing.T) {
	h := distCommitted(t, 2)
	h.r.Node("r1/p6").Fail()
	recoverSlotHost(t, h, "n5")
	if got := h.waitCount(t, 40, 30*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want exactly 40", got)
	}
	if h.ctrl.RegionDead("r1") {
		t.Fatal("region died")
	}
	if host, _ := h.r.Placement("n5"); host != "r1/p7" {
		t.Fatalf("n5 on %s, want r1/p7", host)
	}
	if steps(h.r, "ok=false activate n5 r1/p6") != 1 || steps(h.r, "ok=true activate n5 r1/p7") != 1 {
		for _, e := range h.r.Obs().Journal.Events() {
			t.Logf("journal: %s slot=%s %s", e.Kind, e.Slot, e.Detail)
		}
		t.Fatal("want one failed activate on p6, then one on p7 that succeeded")
	}
}

// Under dist-1, n5's only copy is on p6. p6 fails unnoticed, then n5's
// host fails. The replacement asks p6 for the blob, nobody serves it, and
// the region dies: it never resumes n5 from empty state. The replanned
// activate and the kill count as no second recovery.
func TestUnnoticedOnlyHolderFailureKillsTheRegion(t *testing.T) {
	h := distCommitted(t, 1)
	h.r.FailPhone("r1/p6")
	victim, _ := h.r.Placement("n5")
	h.r.FailPhone(victim) // the next ping round notes it
	deadline := time.Now().Add(20 * time.Second)
	for !h.ctrl.RegionDead("r1") && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !h.ctrl.RegionDead("r1") {
		t.Fatal("region still alive with no copy of n5")
	}
	if steps(h.r, "ok=false fetch-restore n5") != 1 {
		for _, e := range h.r.Obs().Journal.Events() {
			t.Logf("journal: %s slot=%s %s", e.Kind, e.Slot, e.Detail)
		}
		t.Fatal("want one failed fetch-restore of n5")
	}
	if got := h.r.Outputs(); got != 20 {
		t.Fatalf("outputs = %d, want exactly 20", got)
	}
	if n := h.ctrl.Recoveries("r1"); n != 1 {
		t.Fatalf("recoveries = %d, want 1", n)
	}
}

func TestDepartureHandoffMS(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 7)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	v := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("checkpoint never committed")
	}
	victim, _ := h.r.Placement("n3")
	h.r.DepartPhone(victim)
	h.ctrl.NotifyDeparture("r1", victim)
	// Data keeps flowing through urgent mode and then the replacement.
	h.ingest(20)
	got := h.waitCount(t, 30, 30*time.Second)
	if got != 30 {
		t.Fatalf("outputs after departure = %d, want 30", got)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if repl, _ := h.r.Placement("n3"); repl != victim {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("slot never moved off the departed phone")
}

func TestRegionReportAndPreservation(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 6)
	h.ingest(10)
	h.waitCount(t, 10, 10*time.Second)
	src, edge := h.r.PreservedBytes()
	if src != 10*1024 {
		t.Fatalf("source preservation = %d, want %d", src, 10*1024)
	}
	if edge != 0 {
		t.Fatalf("edge preservation = %d, want 0 under ms", edge)
	}
	rep := h.r.Report(h.clk.Now())
	if rep.Tuples != 10 || rep.Scheme != "ms" {
		t.Fatalf("report = %+v", rep)
	}
	if rep.DataBytes == 0 {
		t.Fatal("no data bytes counted")
	}
}

func TestEdgePreservationUnderDist(t *testing.T) {
	h := newHarness(t, ft.Dist(2), 7)
	h.ingest(10)
	h.waitCount(t, 10, 10*time.Second)
	src, edge := h.r.PreservedBytes()
	if src != 0 {
		t.Fatalf("source preservation = %d, want 0 under dist", src)
	}
	// Edges crossing slots: A->B, B->C, B->D, C->E, D->E = 5 edges x 10
	// tuples x 1 KB.
	if edge != 5*10*1024 {
		t.Fatalf("edge preservation = %d, want %d", edge, 5*10*1024)
	}
}

// TestPlannedMigrationExactlyOnce drives the scheduler's migration path by
// hand: a live slot moves to an idle phone mid-stream, and every ingested
// tuple is published exactly once — nothing dropped, nothing duplicated.
// Both an interior slot and the source slot migrate (the source exercises
// the external-ingest relay through the repoint window).
func TestPlannedMigrationExactlyOnce(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 7)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}

	// Keep data flowing while the migrations run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			h.r.Ingest("A", fmt.Sprintf("m%d", i), 1024, "test")
			time.Sleep(2 * time.Millisecond)
		}
	}()

	if !h.ctrl.Migrate("r1", "n3", "r1/p6") {
		t.Fatal("interior migration n3 -> p6 failed")
	}
	if !h.ctrl.Migrate("r1", "n1", "r1/p7") {
		t.Fatal("source migration n1 -> p7 failed")
	}
	<-done
	h.ingest(10)

	if got := h.waitCount(t, 50, 30*time.Second); got != 50 {
		t.Fatalf("outputs = %d, want exactly 50 (no loss)", got)
	}
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d, want 0", d)
	}
	if pid, _ := h.r.Placement("n3"); pid != "r1/p6" {
		t.Fatalf("n3 on %s, want r1/p6", pid)
	}
	if pid, _ := h.r.Placement("n1"); pid != "r1/p7" {
		t.Fatalf("n1 on %s, want r1/p7", pid)
	}
	if got := h.ctrl.Migrations("r1"); got != 2 {
		t.Fatalf("controller migrations = %d, want 2", got)
	}
	if got := h.r.Report(h.clk.Now()).Migrations; got != 2 {
		t.Fatalf("region migrations = %d, want 2", got)
	}
	// The migrated-off phones are intact: checkpointing still works.
	v := h.ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("post-migration checkpoint never committed")
	}
}

// TestMigrateValidatesTarget pins the claim/validation edges of Migrate.
func TestMigrateValidatesTarget(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 6)
	if h.ctrl.Migrate("r1", "n3", "r1/p1") {
		t.Fatal("migration onto a non-idle phone must fail")
	}
	if h.ctrl.Migrate("r1", "nope", "r1/p6") {
		t.Fatal("migration of an unknown slot must fail")
	}
	if h.ctrl.Migrate("nope", "n3", "r1/p6") {
		t.Fatal("migration in an unknown region must fail")
	}
	if got := h.ctrl.Migrations("r1"); got != 0 {
		t.Fatalf("migrations = %d, want 0", got)
	}
}

// TestConcurrentFailDepartUnregister races failure, departure and
// unregistration of the same phone against membership reads: no panics, and
// the phone ends up gone from every membership view.
func TestConcurrentFailDepartUnregister(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 7)
	victim := simnet.NodeID("r1/p7") // idle: the pipeline stays intact
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, fn := range []func(){
		func() { h.r.FailPhone(victim) },
		func() { h.r.DepartPhone(victim) },
		func() { h.r.Unregister(victim) },
		func() { h.ctrl.NotifyDeparture("r1", victim) },
	} {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			<-start
			fn()
		}(fn)
	}
	// Concurrent readers of the membership views the fault paths mutate.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 50; j++ {
				h.r.AlivePhones()
				h.r.LivePeers("r1/p1")
				h.r.Placement("n3")
			}
		}()
	}
	close(start)
	wg.Wait()
	for _, id := range h.r.AlivePhones() {
		if id == victim {
			t.Fatal("unregistered phone still listed alive")
		}
	}
	for _, id := range h.r.LivePeers("r1/p1") {
		if id == victim {
			t.Fatal("unregistered phone still listed as a live peer")
		}
	}
	// The region keeps working after the membership churn.
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
}

// TestDepartureWithoutMobilityStoryWarnsOnce pins the behaviour of
// NotifyDeparture on schemes without HandlesDepartures: the slot stays on
// the departed phone (urgent mode forever), the departure is counted, and
// the controller journals the no-mobility warning exactly once per region
// no matter how many phones depart.
func TestDepartureWithoutMobilityStoryWarnsOnce(t *testing.T) {
	h := newHarness(t, ft.Rep2Scheme, 6)
	h.ingest(5)
	h.waitCount(t, 5, 10*time.Second)

	for _, slot := range []string{"n3", "n4"} {
		pid, ok := h.r.Placement(slot)
		if !ok {
			t.Fatalf("no placement for %s", slot)
		}
		h.r.DepartPhone(pid)
		h.ctrl.NotifyDeparture("r1", pid)
		// Urgent mode forever: the slot never moves off the departed phone.
		if now, _ := h.r.Placement(slot); now != pid {
			t.Fatalf("slot %s moved to %s under a scheme with no mobility story", slot, now)
		}
	}
	if got := h.ctrl.Departures("r1"); got != 2 {
		t.Fatalf("departures = %d, want 2", got)
	}
	count := 0
	for _, e := range h.r.Obs().Journal.Events() {
		if e.Kind == "depart.no_mobility" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("no-mobility warning journaled %d times, want exactly once (spam guard)", count)
	}
}

// TestTelemetryCollector checks the placement snapshot's telemetry:
// membership, slot assignment, idle flags, and drain-rate estimation
// across snapshots.
func TestTelemetryCollector(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 6)
	h.ingest(10)
	h.waitCount(t, 10, 10*time.Second)

	slots, idle := foundingPlacement(h.r)
	first := h.r.PlacementSnapshot(slots, idle, nil)
	if first.Region != "r1" || len(first.Phones) != 6 {
		t.Fatalf("snapshot = %s with %d phones, want r1 with 6", first.Region, len(first.Phones))
	}
	hosting := make(map[simnet.NodeID]bool)
	for _, a := range first.Slots {
		hosting[a.Phone] = true
	}
	if !slices.Contains(first.Slots, placement.Assignment{Slot: "n3", Phone: "r1/p3"}) {
		t.Fatalf("snapshot slots %v do not place n3 on r1/p3", first.Slots)
	}
	sawIdle := false
	for _, p := range first.Phones {
		if p.Idle {
			sawIdle = true
			if hosting[p.ID] {
				t.Fatalf("idle phone %s hosts a slot", p.ID)
			}
		}
		if p.BatteryJoules <= 0 || p.BatteryFraction <= 0 {
			t.Fatalf("phone %s has no battery telemetry: %+v", p.ID, p)
		}
	}
	if !sawIdle {
		t.Fatalf("snapshot has no idle phone: %+v", first.Phones)
	}

	// A second snapshot after more work carries a positive drain rate.
	h.ingest(20)
	h.waitCount(t, 30, 10*time.Second)
	second := h.r.PlacementSnapshot(slots, idle, nil)
	drained := false
	for _, p := range second.Phones {
		if p.DrainWatts > 0 {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("second snapshot has no drain estimate: %+v", second.Phones)
	}

	// A failed phone drops out of the snapshot.
	h.r.FailPhone("r1/p6")
	third := h.r.PlacementSnapshot(slots, idle, nil)
	for _, p := range third.Phones {
		if p.ID == "r1/p6" {
			t.Fatal("failed phone still in the snapshot")
		}
	}
}

// TestAddPhoneRecruitsIdleMember pins the join path: a recruited phone
// becomes claimable and can host a migrated slot.
func TestAddPhoneRecruitsIdleMember(t *testing.T) {
	h := newHarness(t, ft.MSScheme, 5) // zero idle spares
	h.ingest(5)
	h.waitCount(t, 5, 10*time.Second)
	if _, idle := h.r.Founding(); len(idle) != 0 {
		t.Fatalf("idle = %v, want none", idle)
	}
	id := h.r.AddPhone(phone.Config{})
	if !h.ctrl.Migrate("r1", "n3", id) {
		t.Fatalf("migration onto recruited phone %s failed", id)
	}
	h.ingest(10)
	if got := h.waitCount(t, 15, 20*time.Second); got != 15 {
		t.Fatalf("outputs = %d, want 15", got)
	}
	if pid, _ := h.r.Placement("n3"); pid != id {
		t.Fatalf("n3 on %s, want %s", pid, id)
	}
	// The recruit started with no table: it routes n3's output by the one
	// the migration installed.
	var installs []uint64
	for _, e := range h.r.Obs().Journal.Events() {
		if e.Kind == "node.routes" && e.Node == string(id) {
			installs = append(installs, e.Version)
		}
	}
	if len(installs) == 0 || installs[0] < 2 {
		t.Fatalf("recruit installed tables %v, want the migration's (version >= 2)", installs)
	}
}

// foundingPlacement is the controller's record before any step moved a
// slot: the founding table's assignments, and its idle phones.
func foundingPlacement(r *region.Region) ([]placement.Assignment, []simnet.NodeID) {
	routes, idle := r.Founding()
	var slots []placement.Assignment
	for _, slot := range r.Graph().Slots() {
		s, _ := r.Graph().SlotID(slot)
		slots = append(slots, placement.Assignment{Slot: slot, Phone: routes.Primary[s]})
	}
	return slots, idle
}

// TestSchedulerLoopEvacuatesLowBattery wires the planner into the
// controller and checks the full loop: telemetry flags a phone whose
// battery has cliffed, and its slot is live-migrated onto an idle phone
// before any reactive machinery fires — with no output lost or duplicated.
func TestSchedulerLoopEvacuatesLowBattery(t *testing.T) {
	h := plannerHarness(t, singleChannel)
	r, ctrl := h.r, h.ctrl
	evacuateLowBattery(t, h)
	if ctrl.Migrations("r1") == 0 {
		t.Fatal("no migration recorded")
	}
	if ctrl.Recoveries("r1") != 0 {
		t.Fatal("reactive recovery fired; migration should have pre-empted it")
	}
	want := int64(r.Outputs()) // whatever was ingested so far, delivered
	h.ingest(10)
	if got := h.waitCount(t, want+10, 20*time.Second); got < want+10 {
		t.Fatalf("outputs after evacuation = %d, want >= %d", got, want+10)
	}
	if d := r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d, want 0", d)
	}
}
