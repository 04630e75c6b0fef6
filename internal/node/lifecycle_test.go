package node

import (
	"sync"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// The lifecycle table, pinned for every state and every command: the
// state each legal command leads to, and "-" where the table forbids it.
// A nested pause counts: two holds need two resumes.
func TestLifecycleTable(t *testing.T) {
	cmds := []CommandOp{CmdActivate, cmdTransferIn, CmdPromote, CmdPause, CmdResume, cmdReplayEnd,
		CmdRestore, CmdFetchRestore, CmdReplay, CmdHandoff, cmdFail, cmdStop}
	const (
		pPrim, rPrim, rCatch = "paused primary", "restored primary", "restored catching-up"
	)
	rows := []struct {
		from lifecycle
		want []string // per cmds
	}{
		{lifecycle{role: RoleIdle}, []string{"primary", "primary", "-", "paused idle", "-", "-", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: roleHandedOff, target: "x"}, []string{"primary", "primary", "-", "paused handed-off", "-", "-", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: RoleStandby}, []string{"-", "-", "primary", "paused standby", "-", "-", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: RolePrimary}, []string{"-", "-", "-", pPrim, "-", "primary", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: roleCatchingUp}, []string{"-", "-", "-", "paused catching-up", "-", "primary", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: RolePrimary, pauses: 1}, []string{"-", "-", "-", pPrim, "primary", pPrim, rPrim, pPrim, pPrim, "handed-off", "failed", "stopped"}},
		{lifecycle{role: RolePrimary, pauses: 2}, []string{"-", "-", "-", pPrim, pPrim, pPrim, rPrim, pPrim, pPrim, "paused handed-off", "failed", "stopped"}},
		{lifecycle{role: RoleStandby, pauses: 1}, []string{"-", "-", pPrim, "paused standby", "standby", "-", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: RoleIdle, pauses: 1}, []string{pPrim, pPrim, "-", "paused idle", "idle", "-", "-", "-", "-", "-", "failed", "stopped"}},
		{lifecycle{role: roleCatchingUp, pauses: 1}, []string{"-", "-", "-", "paused catching-up", "catching-up", pPrim, rPrim, pPrim, "paused catching-up", "handed-off", "failed", "stopped"}},
		{lifecycle{role: RolePrimary, pauses: 1, closed: true}, []string{"-", "-", "-", rPrim, "primary", rPrim, rPrim, rPrim, rPrim, "handed-off", "failed", "stopped"}},
		{lifecycle{role: RolePrimary, pauses: 2, closed: true}, []string{"-", "-", "-", rPrim, rPrim, rPrim, rPrim, rPrim, rPrim, "paused handed-off", "failed", "stopped"}},
		{lifecycle{role: roleFailed}, []string{"-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-"}},
		{lifecycle{role: roleStopped}, []string{"-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "failed", "-"}},
	}
	for _, row := range rows {
		for i, c := range cmds {
			got := "-"
			if to, ok := row.from.next(c, false, "t"); ok {
				got = to.String()
				if to.closed && to.pauses == 0 {
					t.Errorf("%s %s: door closed with no pause held", &row.from, c)
				}
				if (to.role == roleHandedOff) != (to.target != "") {
					t.Errorf("%s %s: %s with relay target %q", &row.from, c, got, to.target)
				}
			}
			if got != row.want[i] {
				t.Errorf("%s %s: got %q, want %q", &row.from, c, got, row.want[i])
			}
		}
		// Commands outside the lifecycle move no state.
		for _, c := range []CommandOp{CmdToken, CmdSnapshot, CmdCommit, CmdPing} {
			if to, ok := row.from.next(c, false, ""); ok {
				t.Errorf("%s %s: moved to %s", &row.from, c, &to)
			}
		}
	}
	// A restored sink withholds its output until the replay ends.
	if to, _ := (lifecycle{role: RolePrimary, pauses: 1}).next(CmdRestore, true, ""); to.String() != rCatch {
		t.Errorf("sink restore: got %s, want %s", &to, rCatch)
	}
}

// The arrival door, pinned for every state and each way an arrival comes
// in: external ingest, one stream message and a batch all get the same
// answer, except that a restored node's closed door keeps external input.
func TestLifecycleDoor(t *testing.T) {
	const (
		enq, buf, rel, drop = "enqueue", "buffer", "relay", "drop"
	)
	rows := []struct {
		state lifecycle
		want  [3]string // external, stream, batch
	}{
		{lifecycle{role: RoleIdle}, [3]string{buf, buf, buf}},
		{lifecycle{role: roleHandedOff, target: "t"}, [3]string{rel, rel, rel}},
		{lifecycle{role: RoleStandby}, [3]string{enq, enq, enq}},
		{lifecycle{role: RolePrimary}, [3]string{enq, enq, enq}},
		{lifecycle{role: roleCatchingUp}, [3]string{enq, enq, enq}},
		{lifecycle{role: RolePrimary, pauses: 1}, [3]string{enq, enq, enq}},
		{lifecycle{role: RolePrimary, pauses: 1, closed: true}, [3]string{enq, drop, drop}},
		{lifecycle{role: roleFailed}, [3]string{drop, drop, drop}},
		{lifecycle{role: roleStopped}, [3]string{drop, drop, drop}},
	}
	for _, row := range rows {
		arrivals := [3]func(n *Node){
			func(n *Node) { n.IngestExternal(opOf("src"), &tuple.Tuple{Seq: 1, Size: 10}) },
			func(n *Node) { m := testStreamMsg(1); n.enqueueStream(&m) },
			func(n *Node) { b := takeBatch(); b.Msgs = append(b.Msgs, testStreamMsg(1)); n.enqueueStreamBatch(b) },
		}
		// External input arrives at the source slot, stream input at its
		// consumer; a node in a slotless state hosts neither.
		slots := [3]string{"up", "down", "down"}
		for i, arrive := range arrivals {
			slot := slots[i]
			if row.state.role == RoleIdle || row.state.role == roleHandedOff {
				slot = ""
			}
			got := doorOutcome(t, slot, row.state, arrive)
			if got != row.want[i] {
				t.Errorf("%s, arrival %d: %s, want %s", &row.state, i, got, row.want[i])
			}
		}
	}
}

// doorOutcome builds a node hosting slot of edgeGraph in state s, lets one
// arrival in, and reports what became of it.
func doorOutcome(t *testing.T, slot string, s lifecycle, arrive func(n *Node)) string {
	t.Helper()
	clk := clock.NewScaled(1e6)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	self, target := simnet.NewEndpoint("a", 16), simnet.NewEndpoint("t", 16)
	w.Join(self)
	w.Join(target)
	n := edgeNode(slot, Config{ID: "a", Scheme: ft.BaseScheme, Clock: clk, WiFi: w, Endpoint: self})
	n.life.Store(&s)
	arrive(n)
	switch {
	case n.Backlog() > 0:
		return "enqueue"
	case len(n.preBuf) > 0:
		return "buffer"
	case len(target.Inbox()) > 0:
		return "relay"
	}
	return "drop"
}

// A pause hold that did not park the executor in its bound reports so and
// is journaled, and a restore behind it fails without installing anything.
// Once the executor parks, a second hold nests: the executor runs again
// only when both are released.
func TestPauseThatDoesNotParkFailsRestore(t *testing.T) {
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("out", "s1")
	gb.Chain("src", "out")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}, 16), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	n, _, reg, outs := startedObsNode(t, g, "s1", func(id string, _ *countingClock) operator.Operator {
		if id == "out" {
			return operator.NewPassthrough(id)
		}
		return operator.NewMap(id, func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple {
			entered <- struct{}{}
			<-release
			return in
		})
	})
	src, _ := g.OpID("src")
	n.IngestExternal(src, &tuple.Tuple{Seq: 1, Source: "src"})
	<-entered          // the executor is inside src
	t.Cleanup(unblock) // before the node's Stop, which waits for the executor
	if n.pause("test", 20*time.Millisecond) {
		t.Fatal("pause parked an executor blocked in an operator")
	}
	if !journaled(reg, "node.pause_timeout") {
		t.Error("no node.pause_timeout journaled")
	}
	before := n.pipe.Load()
	if r := n.restore(0); r.Err == "" || r.Type != RepRestored {
		t.Fatalf("restore behind an unparked pause reported %+v, want RepRestored with Err", r)
	}
	if n.pipe.Load() != before || n.life.Load().closed {
		t.Fatal("the failed restore installed state or closed the door")
	}

	unblock()
	<-outs
	if !n.PauseExec() { // the second hold; the executor parks behind both
		t.Fatal("executor did not park once released")
	}
	n.resume("test")
	n.IngestExternal(src, &tuple.Tuple{Seq: 2, Source: "src"})
	select {
	case <-outs:
		t.Fatal("a tuple ran while a pause hold was still taken")
	case <-time.After(20 * time.Millisecond):
	}
	n.ResumeExec()
	<-outs
	if journaled(reg, "node.state.illegal") {
		t.Error("a legal sequence journaled node.state.illegal")
	}
}

func journaled(reg *obs.Registry, kind string) bool {
	for _, e := range reg.Journal.Events() {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// Stop ends a delivery parked toward a dead downstream: a node whose
// downstream endpoint is sealed stops at once, not when a table moves.
func TestStopEndsDeliveryRetries(t *testing.T) {
	clk := clock.NewScaled(10)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	tx, rx := simnet.NewEndpoint("tx", 64), simnet.NewEndpoint("rx", 64)
	w.Join(tx)
	w.Join(rx)
	rx.Seal()
	n := edgeNode("up", Config{ID: "tx", Scheme: ft.BaseScheme, Clock: clk, WiFi: w, Endpoint: tx,
		Routes: edgeRoutes(1, "rx"), QoS: QoS{MaxBatchMsgs: 1}})
	n.Start()
	n.IngestExternal(opOf("src"), &tuple.Tuple{Seq: 1, Size: 100})
	// The executor has tried the sealed target once and parked.
	retrying := func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.unreachable["rx"]
	}
	for deadline := time.Now().Add(10 * time.Second); !retrying(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the delivery never failed")
		}
	}
	start := clk.Now()
	n.Stop()
	if took := clk.Now() - start; took > time.Second {
		t.Fatalf("Stop took %v simulated behind a delivery to a sealed endpoint, want under %v", took, time.Second)
	}
}
