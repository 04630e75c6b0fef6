package node

import (
	"strconv"
	"testing"
	"unsafe"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// The two values every tuple is copied as on its way between slots stay
// within the 64 bytes amd64 copies inline; above it every copy is a
// runtime.duffcopy call.
func TestDataPathItemSizes(t *testing.T) {
	if sz := unsafe.Sizeof(queued{}); sz > 64 {
		t.Errorf("queued is %d bytes, want <= 64", sz)
	}
	if sz := unsafe.Sizeof(streamMsg{}); sz > 64 {
		t.Errorf("StreamMsg is %d bytes, want <= 64", sz)
	}
}

// Two nodes compiled from one graph agree on every ID: the sender's
// routes and downstream edges name the receiver's operators and slot, the
// receiver resolves the sender's slot to a queue, and every ID names back
// the operator or slot it was compiled from.
func TestNodesAgreeOnGraphIDs(t *testing.T) {
	up := edgeNode("up", Config{ID: "a", Scheme: ft.BaseScheme})
	down := edgeNode("down", Config{ID: "b", Scheme: ft.BaseScheme})
	pu, pd := up.pipe.Load(), down.pipe.Load()
	if len(pu.downs) != 1 || pu.downs[0] != pd.slotID {
		t.Fatalf("sender's downstream edges %v, receiver's slot %d", pu.downs, pd.slotID)
	}
	if qi := pd.upstreamOf(pu.slotID); qi < 0 || pd.upstreams[qi] != pu.slotID {
		t.Fatalf("receiver resolves the sender's slot %d to queue %d", pu.slotID, qi)
	}
	r := pu.ops[0].fanout[0]
	if r.local >= 0 || pd.opFor(r.toOp) != 0 || pd.ops[0].gid != r.toOp {
		t.Fatalf("sender routes to op %d (local %d); receiver hosts op %d", r.toOp, r.local, pd.ops[0].gid)
	}
	for _, p := range []*pipeline{pu, pd} {
		if edgeGraph.SlotName(p.slotID) != p.slot {
			t.Fatalf("slot %q compiled as ID %d, which names %q", p.slot, p.slotID, edgeGraph.SlotName(p.slotID))
		}
		for i := range p.ops {
			if edgeGraph.OpName(p.ops[i].gid) != p.ops[i].id || p.opFor(p.ops[i].gid) != i {
				t.Fatalf("op %q compiled as ID %d at index %d", p.ops[i].id, p.ops[i].gid, i)
			}
		}
	}
	// The source slot's external pseudo-queue is its own, not a real slot's.
	if qi := pu.upstreamOf(graph.ExternalSlot); qi < 0 || pu.upstreamOf(pd.slotID) >= 0 {
		t.Fatalf("source slot queues: external %d, downstream slot %d", qi, pu.upstreamOf(pd.slotID))
	}
}

// An incoming replacement buffers preBufLimit arrivals before its transfer
// installs. The ones past the bound are dropped, and activation journals
// the count once.
func TestPreBufDropsJournaledOnce(t *testing.T) {
	reg := obs.NewRegistry()
	n := edgeNode("", Config{ID: "b", Scheme: ft.BaseScheme, Obs: reg}) // idle
	for seq := uint64(1); seq <= preBufLimit+1; seq++ {
		m := testStreamMsg(seq)
		n.enqueueStream(&m)
	}
	if len(n.preBuf) != preBufLimit || n.preDrops != 1 {
		t.Fatalf("buffered %d and dropped %d, want %d and 1", len(n.preBuf), n.preDrops, preBufLimit)
	}
	n.activate("down")
	var drops []obs.Event
	for _, e := range reg.Journal.Events() {
		if e.Kind == "migrate.prebuf_drop" {
			drops = append(drops, e)
		}
	}
	if len(drops) != 1 || drops[0].Detail != strconv.Itoa(1) || drops[0].Slot != "down" {
		t.Fatalf("journaled %+v, want one migrate.prebuf_drop of 1 on down", drops)
	}
	if q := n.queueFor(slotOf("up")); q == nil || q.len() != preBufLimit {
		t.Fatal("buffered arrivals were not queued on activation")
	}
}

// BenchmarkCrossSlotHop drives one tuple per op across a two-slot chain:
// the sender's operator emits through sendCross into its batcher, every
// 16th emission flushes a batch over the medium, and the receiver unbatches
// it with enqueueStreamBatch and runs each item through handleItem to its
// sink. It reports the hop's ns/op and allocs/op.
func BenchmarkCrossSlotHop(b *testing.B) {
	clk := clock.NewScaled(1e6)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	txEP, rxEP := simnet.NewEndpoint("a", 1024), simnet.NewEndpoint("b", 1024)
	w.Join(txEP)
	w.Join(rxEP)
	var out uint64
	tx := edgeNode("up", Config{ID: "a", Scheme: ft.BaseScheme, Clock: clk, WiFi: w, Endpoint: txEP,
		Routes: edgeRoutes(1, "b"), QoS: QoS{MaxBatchMsgs: 16}})
	rx := edgeNode("down", Config{ID: "b", Scheme: ft.BaseScheme, Clock: clk, WiFi: w, Endpoint: rxEP,
		OnSinkOutput: func(*tuple.Tuple) { out++ }})
	pt, pr := tx.pipe.Load(), rx.pipe.Load()
	src := pt.opIndex("src")
	tup := &tuple.Tuple{Seq: 1, Size: 64}
	var it queued
	hop := func() {
		tx.runOp(pt, src, "", tup, noStamp)
		select {
		case m := <-rxEP.Inbox():
			rx.enqueueStreamBatch(m.Payload.(*batchMsg))
		default:
			return
		}
		for {
			rx.mu.Lock()
			qi, ok := rx.nextItemLocked(&it)
			rx.mu.Unlock()
			if !ok {
				return
			}
			rx.handleItem(pr, qi, &it, noStamp)
		}
	}
	for i := 0; i < 4096; i++ { // grow queues and fill the batch pool
		hop()
	}
	out = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
	b.StopTimer()
	if want := uint64(b.N) / 16 * 16; out < want {
		b.Fatalf("%d of %d tuples reached the sink", out, b.N)
	}
}
