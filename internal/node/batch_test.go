package node

import (
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// edgeGraph is the one-edge graph the batch and route-cache tests send
// over: operator src on slot "up" feeds operator op on slot "down".
var edgeGraph = func() *graph.Graph {
	var b graph.Builder
	b.AddOperator("src", "up").AddOperator("op", "down").Connect("src", "op")
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}()

func slotOf(name string) graph.SlotID { return mustSlot(edgeGraph, name) }

func opOf(name string) graph.OpID { return mustOp(edgeGraph, name) }

// edgeRoutes is a version of edgeGraph's route table that places slot
// "down" on the endpoint down.
func edgeRoutes(version uint64, down simnet.NodeID) *Routes {
	t := &Routes{Version: version, Primary: make([]simnet.NodeID, edgeGraph.NumSlotIDs()),
		Standby: make([]simnet.NodeID, edgeGraph.NumSlotIDs())}
	t.Primary[slotOf("down")] = down
	return t
}

// edgeNode builds a node hosting slot of edgeGraph ("" for an idle node)
// from cfg, filling in the graph, the slot's operators and defaults for
// what cfg leaves unset. No goroutines are started.
func edgeNode(slot string, cfg Config) *Node {
	cfg.Graph, cfg.Slot, cfg.OpIDs = edgeGraph, slot, edgeGraph.OpsOnSlot(slot)
	cfg.Registry = operator.Registry{
		"src": func() operator.Operator { return operator.NewPassthrough("src") },
		"op":  func() operator.Operator { return operator.NewPassthrough("op") },
	}
	if cfg.Phone == nil {
		cfg.Phone = phone.New(cfg.ID, phone.Config{})
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewScaled(1e6)
	}
	return New(cfg)
}

// newBatchHarness wires one sending node, hosting slot "up", to a
// receiving endpoint over a fast WiFi medium, without starting any
// goroutines: flushes are driven explicitly by the tests.
func newBatchHarness(t *testing.T, qos QoS) (*Node, *simnet.Endpoint) {
	t.Helper()
	clk := clock.NewScaled(1e6)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	tx := simnet.NewEndpoint("tx", 1024)
	rx := simnet.NewEndpoint("rx", 1024)
	w.Join(tx)
	w.Join(rx)
	n := edgeNode("up", Config{
		ID:       "tx",
		Scheme:   ft.BaseScheme,
		Clock:    clk,
		WiFi:     w,
		Endpoint: tx,
		Routes:   edgeRoutes(1, "rx"),
		QoS:      qos,
	})
	return n, rx
}

func testStreamMsg(seq uint64) streamMsg {
	return streamMsg{FromSlot: slotOf("up"), ToSlot: slotOf("down"), FromOp: opOf("src"), ToOp: opOf("op"),
		EdgeSeq: seq, Item: tuple.DataItem(&tuple.Tuple{Seq: seq, Size: 100})}
}

// add queues one message on the harness's only downstream edge.
func add(n *Node, m streamMsg) { n.batch.add(0, &m) }

func recvPayloads(rx *simnet.Endpoint) []interface{} {
	var out []interface{}
	for {
		select {
		case m := <-rx.Inbox():
			out = append(out, m.Payload)
		default:
			return out
		}
	}
}

func TestBatcherCoalescesInOrder(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 100})
	for seq := uint64(1); seq <= 5; seq++ {
		add(n, testStreamMsg(seq))
	}
	if got := recvPayloads(rx); len(got) != 0 {
		t.Fatalf("sent %d payloads before any flush", len(got))
	}
	n.batch.flushAll()
	got := recvPayloads(rx)
	if len(got) != 1 {
		t.Fatalf("payloads = %d, want one batch", len(got))
	}
	bm, ok := got[0].(*batchMsg)
	if !ok {
		t.Fatalf("payload is %T, want *BatchMsg", got[0])
	}
	if len(bm.Msgs) != 5 {
		t.Fatalf("batch carries %d msgs, want 5", len(bm.Msgs))
	}
	for i, m := range bm.Msgs {
		if m.EdgeSeq != uint64(i+1) {
			t.Fatalf("batch order broken: %d at position %d", m.EdgeSeq, i)
		}
	}
	if bm.wireSize() != 500 {
		t.Fatalf("wire size = %d, want 500", bm.wireSize())
	}
}

func TestBatcherFlushesAtMaxMsgs(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 3})
	for seq := uint64(1); seq <= 7; seq++ {
		add(n, testStreamMsg(seq))
	}
	got := recvPayloads(rx)
	if len(got) != 2 {
		t.Fatalf("payloads = %d, want 2 full batches (7th message still pending)", len(got))
	}
	if n.batch.pendingSlots() != 1 {
		t.Fatalf("pending slots = %d, want 1", n.batch.pendingSlots())
	}
}

func TestBatcherFlushesAtMaxBytes(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 100})
	n.batch.maxBytes = 250
	add(n, testStreamMsg(1))
	add(n, testStreamMsg(2))
	if got := recvPayloads(rx); len(got) != 0 {
		t.Fatal("flushed below the byte bound")
	}
	add(n, testStreamMsg(3)) // 300 bytes >= 250
	if got := recvPayloads(rx); len(got) != 1 {
		t.Fatalf("payloads = %d, want 1 byte-bound flush", len(got))
	}
}

func TestBatcherMarkerFlushesImmediately(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 100})
	add(n, testStreamMsg(1))
	add(n, testStreamMsg(2))
	marker := streamMsg{FromSlot: slotOf("up"), ToSlot: slotOf("down"), FromOp: graph.NoOp, ToOp: graph.NoOp,
		EdgeSeq: 3, Item: tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerToken, Version: 7})}
	add(n, marker)
	got := recvPayloads(rx)
	if len(got) != 1 {
		t.Fatalf("payloads = %d, want 1 (marker must not wait on the latency bound)", len(got))
	}
	bm := got[0].(*batchMsg)
	if len(bm.Msgs) != 3 || bm.Msgs[2].Item.Marker == nil {
		t.Fatalf("marker batch wrong: %d msgs, last marker %v", len(bm.Msgs), bm.Msgs[2].Item.Marker)
	}
	if bm.Msgs[0].EdgeSeq != 1 || bm.Msgs[1].EdgeSeq != 2 {
		t.Fatal("tuples before the marker were reordered")
	}
}

func TestBatcherDisabledSendsSingles(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 1})
	add(n, testStreamMsg(1))
	add(n, testStreamMsg(2))
	got := recvPayloads(rx)
	if len(got) != 2 {
		t.Fatalf("payloads = %d, want 2 singles", len(got))
	}
	for i, p := range got {
		if bm, ok := p.(*batchMsg); !ok || len(bm.Msgs) != 1 || bm.Msgs[0].EdgeSeq != uint64(i+1) {
			t.Fatalf("payload %d is %#v, want a one-message batch of seq %d", i, p, i+1)
		}
	}
}

func TestBatcherDiscardAll(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 100})
	add(n, testStreamMsg(1))
	n.batch.discardAll()
	n.batch.flushAll()
	if got := recvPayloads(rx); len(got) != 0 {
		t.Fatalf("discarded batch was sent: %d payloads", len(got))
	}
	if n.batch.pendingSlots() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestBatcherObservesStats(t *testing.T) {
	reg := obs.NewRegistry()
	clk := clock.NewScaled(1e6)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	tx, rx := simnet.NewEndpoint("tx", 64), simnet.NewEndpoint("rx", 64)
	w.Join(tx)
	w.Join(rx)
	n := edgeNode("up", Config{
		ID: "tx", Scheme: ft.BaseScheme, Clock: clk,
		WiFi: w, Endpoint: tx, Routes: edgeRoutes(1, "rx"),
		QoS: QoS{MaxBatchMsgs: 4}, Obs: reg,
	})
	for seq := uint64(1); seq <= 8; seq++ {
		add(n, testStreamMsg(seq))
	}
	sizes := reg.Hist(obs.BatchMsgs, "")
	if sizes.Count() != 2 || sizes.Sum() != 8 || sizes.Mean() != 4 || sizes.Max() != 4 {
		t.Fatalf("batch family = %d flushes / %d msgs / %.1f mean / %d max",
			sizes.Count(), sizes.Sum(), sizes.Mean(), sizes.Max())
	}
	_ = rx
}

// TestEnqueueStreamBatchUnbatches checks the receive half: a batchMsg is
// unbatched into the upstream queue in order under one lock.
func TestEnqueueStreamBatchUnbatches(t *testing.T) {
	n := edgeNode("down", Config{ID: "rx", Scheme: ft.BaseScheme})
	bm := takeBatch()
	for seq := uint64(1); seq <= 4; seq++ {
		bm.Msgs = append(bm.Msgs, testStreamMsg(seq))
	}
	bm.Msgs = append(bm.Msgs, testStreamMsg(4)) // in-window duplicate: dropped
	n.enqueueStreamBatch(bm)
	q := n.queueFor(slotOf("up"))
	if q.len() != 4 {
		t.Fatalf("queue has %d items, want 4", q.len())
	}
	var it queued
	for want := uint64(1); want <= 4; want++ {
		if q.pop(&it); it.edgeSeq != want {
			t.Fatalf("popped %d, want %d", it.edgeSeq, want)
		}
	}
}

// TestBatchRoundTripZeroAllocs pins the batch pool end to end: the batcher
// fills a pooled batch, a size flush ships the pointer over the medium, and
// the receiver unbatches and recycles it, so a steady-state round trip
// allocates nothing.
func TestBatchRoundTripZeroAllocs(t *testing.T) {
	const perBatch = 8
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: perBatch})
	recv := edgeNode("down", Config{ID: "rx", Scheme: ft.BaseScheme})
	q := recv.queueFor(slotOf("up"))
	msgs := make([]streamMsg, perBatch)
	for i := range msgs {
		msgs[i] = testStreamMsg(0)
	}
	seq := uint64(0)
	var it queued
	round := func() {
		for i := range msgs {
			seq++
			msgs[i].EdgeSeq = seq
			n.batch.add(0, &msgs[i])
		}
		recv.enqueueStreamBatch((<-rx.Inbox()).Payload.(*batchMsg))
		for q.len() > 0 {
			q.pop(&it)
		}
	}
	for i := 0; i < 100; i++ {
		round() // grow the queue and fill the pool
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a %d-message batch round trip allocates %.1f objects, want 0", perBatch, allocs)
	}
	if seq != 301*perBatch || q.lastEnq != seq {
		t.Fatalf("received up to seq %d of %d", q.lastEnq, seq)
	}
}

// TestBatcherConcurrentFlushKeepsFIFO hammers add/flush from two
// goroutines and checks the receiver observes strictly increasing edge
// sequences — the sendMu ordering contract.
func TestBatcherConcurrentFlushKeepsFIFO(t *testing.T) {
	n, rx := newBatchHarness(t, QoS{MaxBatchMsgs: 8})
	const total = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			n.batch.flushAll()
			time.Sleep(time.Microsecond)
		}
	}()
	for seq := uint64(1); seq <= total; seq++ {
		add(n, testStreamMsg(seq))
	}
	<-done
	n.batch.flushAll()
	var last uint64
	count := 0
	for _, p := range recvPayloads(rx) {
		for _, m := range p.(*batchMsg).Msgs {
			if m.EdgeSeq <= last {
				t.Fatalf("sequence %d arrived after %d", m.EdgeSeq, last)
			}
			last = m.EdgeSeq
			count++
		}
	}
	if count != total {
		t.Fatalf("received %d msgs, want %d", count, total)
	}
}
