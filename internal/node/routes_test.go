package node

import (
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// routeRig is a sender hosting edgeGraph's "up" slot on endpoint tx, and
// the receivers rxA and rxB; the sender's first table places "down" on
// rxA.
type routeRig struct {
	clk      clock.Clock
	w        *simnet.WiFi
	rxA, rxB *simnet.Endpoint
	n        *Node
	reg      *obs.Registry
}

func newRouteRig(speedup float64, inbox int) *routeRig {
	clk := clock.NewScaled(speedup)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	tx := simnet.NewEndpoint("tx", inbox)
	r := &routeRig{clk: clk, w: w, rxA: simnet.NewEndpoint("rxA", inbox), rxB: simnet.NewEndpoint("rxB", inbox), reg: obs.NewRegistry()}
	w.Join(tx)
	w.Join(r.rxA)
	w.Join(r.rxB)
	r.n = edgeNode("up", Config{ID: "tx", Scheme: ft.BaseScheme, Clock: clk, WiFi: w, Endpoint: tx,
		Routes: edgeRoutes(1, "rxA"), QoS: QoS{MaxBatchMsgs: 1}, Obs: r.reg})
	return r
}

// kill seals rxA and takes it off the medium.
func (r *routeRig) kill() {
	r.rxA.Seal()
	r.w.SetPresent("rxA", false)
}

// seqs drains an inbox, returning the edge sequences of every stream
// message in it, batched or not.
func seqs(ep *simnet.Endpoint) []uint64 {
	var out []uint64
	for {
		select {
		case m := <-ep.Inbox():
			switch p := m.Payload.(type) {
			case streamMsg:
				out = append(out, p.EdgeSeq)
			case *batchMsg:
				for i := range p.Msgs {
					out = append(out, p.Msgs[i].EdgeSeq)
				}
			}
		default:
			return out
		}
	}
}

// parks counts the node.deliver.park entries in the rig's journal.
func (r *routeRig) parks() int {
	n := 0
	for _, e := range r.reg.Journal.Events() {
		if e.Kind == "node.deliver.park" {
			n++
		}
	}
	return n
}

// TestRouteCacheInvalidatesOnEpochBump streams tuples across a table
// install: every delivery before it must land at the old primary, every
// delivery after it at the new one, every sequence exactly once.
func TestRouteCacheInvalidatesOnEpochBump(t *testing.T) {
	r := newRouteRig(1e6, 4096)
	const perPhase = 200
	send := func(seq uint64) {
		r.n.deliverData(slotOf("down"), 100, testStreamMsg(seq), simnet.ClassData)
	}
	for seq := uint64(1); seq <= perPhase; seq++ {
		send(seq)
	}
	// Failover or migration mid-stream: the controller installs a table
	// that moves the slot; later sends must follow it.
	r.n.installRoutes(edgeRoutes(2, "rxB"))
	for seq := uint64(perPhase + 1); seq <= 2*perPhase; seq++ {
		send(seq)
	}
	gotA, gotB := seqs(r.rxA), seqs(r.rxB)
	if len(gotA) != perPhase || len(gotB) != perPhase {
		t.Fatalf("rxA got %d, rxB got %d, want %d each", len(gotA), len(gotB), perPhase)
	}
	seen := make(map[uint64]bool)
	for _, s := range gotA {
		if s > perPhase {
			t.Fatalf("seq %d sent after the install landed at the old primary", s)
		}
		seen[s] = true
	}
	for _, s := range gotB {
		if s <= perPhase {
			t.Fatalf("seq %d sent before the install landed at the new primary", s)
		}
		seen[s] = true
	}
	if len(seen) != 2*perPhase {
		t.Fatalf("delivered %d distinct sequences, want %d", len(seen), 2*perPhase)
	}
}

// TestRouteCacheRetriesAcrossRepoint covers the failover window itself: a
// delivery in flight while the destination is dead must park and land
// exactly once at the new primary a later install names, trying the dead
// phone once per table.
func TestRouteCacheRetriesAcrossRepoint(t *testing.T) {
	r := newRouteRig(1e4, 64)
	r.n.deliverData(slotOf("down"), 100, testStreamMsg(1), simnet.ClassData)
	if got := seqs(r.rxA); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rxA got %v before the failure, want [1]", got)
	}
	r.kill()
	done := make(chan struct{})
	go func() {
		r.n.deliverData(slotOf("down"), 100, testStreamMsg(2), simnet.ClassData)
		close(done)
	}()
	waitFor(t, func() bool { return r.parks() == 1 })
	// A table that still names the dead phone is tried once more.
	r.n.installRoutes(edgeRoutes(2, "rxA"))
	waitFor(t, func() bool { return r.parks() == 2 })
	r.n.installRoutes(edgeRoutes(3, "rxB"))
	<-done
	if got := seqs(r.rxB); len(got) != 1 || got[0] != 2 {
		t.Fatalf("new primary received %v, want [2]", got)
	}
	if p := r.parks(); p != 2 {
		t.Fatalf("journaled %d parks, want 2 (one per table naming the dead phone)", p)
	}
}

// TestParkedDeliveryOutlastsAnyHorizon parks a data batch and a marker
// batch toward a sealed endpoint for over 60 s simulated (past the old
// 300-attempt marker horizon): each lands exactly once at the host the next
// install names, and Stop wakes a delivery parked after it.
func TestParkedDeliveryOutlastsAnyHorizon(t *testing.T) {
	r := newRouteRig(1e4, 64)
	r.kill()
	data := takeBatch()
	data.Msgs = append(data.Msgs, testStreamMsg(1), testStreamMsg(2))
	marker := takeBatch()
	m := testStreamMsg(3)
	m.Item = tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerToken, Version: 1})
	marker.Msgs = append(marker.Msgs, m)
	done := make(chan struct{}, 2)
	for _, b := range []*batchMsg{data, marker} {
		go func(b *batchMsg) {
			r.n.deliverData(slotOf("down"), 200, b, simnet.ClassData)
			done <- struct{}{}
		}(b)
	}
	waitFor(t, func() bool { return r.parks() >= 1 })
	r.clk.Sleep(61 * time.Second)
	select {
	case <-done:
		t.Fatal("a delivery gave up toward the sealed endpoint")
	default:
	}
	r.n.installRoutes(edgeRoutes(2, "rxB"))
	<-done
	<-done
	got := seqs(r.rxB)
	if len(got) != 3 {
		t.Fatalf("rxB got sequences %v, want 1, 2 and 3 once each", got)
	}
	seen := map[uint64]int{}
	for _, s := range got {
		seen[s]++
	}
	if seen[1] != 1 || seen[2] != 1 || seen[3] != 1 {
		t.Fatalf("rxB got sequences %v, want 1, 2 and 3 once each", got)
	}

	r.rxB.Seal()
	r.w.SetPresent("rxB", false)
	go func() {
		r.n.deliverData(slotOf("down"), 100, testStreamMsg(4), simnet.ClassData)
		done <- struct{}{}
	}()
	waitFor(t, func() bool { return r.parks() >= 2 })
	r.n.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not wake the parked delivery")
	}
}

// TestNodeIgnoresOlderRoutes installs tables out of order: the older one
// changes nothing, and handleTransferIn's stale-sender guard reads the
// node's own table.
func TestNodeIgnoresOlderRoutes(t *testing.T) {
	r := newRouteRig(1e6, 64)
	r.n.installRoutes(edgeRoutes(3, "rxB"))
	r.n.installRoutes(edgeRoutes(2, "rxA"))
	if v := r.n.routes.Load().tbl.Version; v != 3 {
		t.Fatalf("table version %d after installing v3 then v2, want 3", v)
	}
	if id, _ := r.n.primary(slotOf("down")); id != "rxB" {
		t.Fatalf("down resolves to %s, want rxB from v3", id)
	}

	// An idle receiver refuses a transfer of "down" from a phone its own
	// table does not name as the slot's host, then takes one once it does.
	idle := edgeNode("", Config{ID: "rx", Scheme: ft.BaseScheme, Routes: edgeRoutes(1, "rxA")})
	idle.handleTransferIn("rxB", transferMsg{Slot: "down"})
	if s := idle.Slot(); s != "" {
		t.Fatalf("transfer from a phone the table does not name activated %q", s)
	}
	idle.installRoutes(edgeRoutes(2, "rxB"))
	idle.handleTransferIn("rxB", transferMsg{Slot: "down"})
	if s := idle.Slot(); s != "down" {
		t.Fatalf("transfer from the slot's host left the node hosting %q, want down", s)
	}
}

// waitFor polls cond for up to 10 s of wall time.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}
