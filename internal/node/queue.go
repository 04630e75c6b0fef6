package node

import (
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/seqset"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// queued is one item waiting on an upstream queue. fromOp/toOp are graph
// IDs (graph.NoOp for markers and external input). tc carries the tuple's
// sampled trace context (zero = untraced); at is the enqueue timestamp —
// it feeds the edge's queue-wait histogram and anchors the executor's CPU
// reservation for the item (zero on paths that don't stamp it, e.g. replay,
// where the reservation falls back to the executor's wake time). Like
// streamMsg it stays within the 64 bytes the compiler copies inline, and
// moves by pointer between queue, executor and handler.
type queued struct {
	fromOp  graph.OpID
	toOp    graph.OpID
	edgeSeq uint64
	item    tuple.Item
	tc      obs.SpanCtx
	at      time.Duration
}

// upQueue is the FIFO from one upstream slot (or the external world).
//
// Under edge-preserving schemes (local/dist-n) the queue delivers strictly
// in edge-sequence order: recovery resends must not be overtaken by fresh
// emissions, so out-of-order arrivals park until the gap fills. The park
// has an overflow valve — an unfillable gap (edge log lost to a second
// failure) degrades to tuple loss rather than deadlock.
//
// Unordered queues (schemes without edge preservation) only suppress
// duplicates, within a bounded window of recently seen sequences: a late
// arrival that simply overtook its neighbours on the network is still
// legitimate input and must not be dropped.
type upQueue struct {
	items   []queued
	head    int
	stalled bool
	lastEnq uint64
	ordered bool
	// park is a min-heap on edgeSeq of out-of-order arrivals waiting for
	// their gap to fill; parked tracks membership for duplicate drops.
	park   []queued
	parked map[uint64]struct{}
	// recent is the unordered queues' dedup window: the dedupWindow
	// sequences ending at the highest one accepted. A repeat inside it is a
	// duplicate; a sequence that has fallen below it is accepted, and
	// caught by sink-side dedup if it was one. Held by value, so the
	// enqueue path never allocates (ordered queues dedup by watermark and
	// park membership instead, and leave it empty).
	recent seqset.Window
	// depth is the edge's queue-depth histogram (nil when obs is off),
	// observed once per delivery, after its last accepted enqueue (an
	// external queue's ingests are sampled by depthTicks, under mu).
	depth      *obs.Histogram
	depthTicks sampler
}

// newStreamQueue builds an upstream stream queue.
func newStreamQueue(ordered bool) *upQueue { return &upQueue{ordered: ordered} }

// parkLimit bounds out-of-order buffering before the gap is abandoned.
const parkLimit = 1024

// dedupWindow bounds how far below the highest accepted sequence an
// unordered queue remembers sequences for duplicate suppression.
const dedupWindow = seqset.WindowSize

// enqueue applies the queue's ordering discipline to a sequenced arrival
// and reports whether anything became deliverable.
func (q *upQueue) enqueue(it *queued) bool {
	if !q.ordered {
		if !q.recent.Admit(it.edgeSeq) {
			return false // duplicate
		}
		if it.edgeSeq > q.lastEnq {
			q.lastEnq = it.edgeSeq
		}
		q.push(it)
		return true
	}
	if it.edgeSeq <= q.lastEnq {
		return false // duplicate below the delivery watermark
	}
	if it.edgeSeq == q.lastEnq+1 {
		q.lastEnq = it.edgeSeq
		q.push(it)
		for len(q.park) > 0 && q.park[0].edgeSeq == q.lastEnq+1 {
			q.lastEnq++
			q.parkPop(q.slot())
		}
		return true
	}
	if _, dup := q.parked[it.edgeSeq]; dup {
		return false
	}
	q.parkPush(it)
	if len(q.park) > parkLimit {
		q.flushPark()
		return true
	}
	return false
}

// parkPush inserts an out-of-order arrival into the park heap.
func (q *upQueue) parkPush(it *queued) {
	if q.parked == nil {
		q.parked = make(map[uint64]struct{})
	}
	q.parked[it.edgeSeq] = struct{}{}
	q.park = append(q.park, *it)
	for i := len(q.park) - 1; i > 0; {
		p := (i - 1) / 2
		if q.park[p].edgeSeq <= q.park[i].edgeSeq {
			break
		}
		q.park[p], q.park[i] = q.park[i], q.park[p]
		i = p
	}
}

// parkPop moves the lowest-sequence parked item into dst.
func (q *upQueue) parkPop(dst *queued) {
	*dst = q.park[0]
	delete(q.parked, dst.edgeSeq)
	last := len(q.park) - 1
	q.park[0] = q.park[last]
	q.park[last] = queued{}
	q.park = q.park[:last]
	for i := 0; ; {
		s := i
		if l := 2*i + 1; l < len(q.park) && q.park[l].edgeSeq < q.park[s].edgeSeq {
			s = l
		}
		if r := 2*i + 2; r < len(q.park) && q.park[r].edgeSeq < q.park[s].edgeSeq {
			s = r
		}
		if s == i {
			break
		}
		q.park[i], q.park[s] = q.park[s], q.park[i]
		i = s
	}
}

// flushPark abandons an unfillable gap: parked items are delivered in
// sequence order and the watermark jumps past them. Heap pops make the
// whole flush O(n log n) in the park size.
func (q *upQueue) flushPark() {
	for len(q.park) > 0 {
		it := q.slot()
		q.parkPop(it)
		q.lastEnq = it.edgeSeq
	}
}

func (q *upQueue) len() int { return len(q.items) - q.head }

func (q *upQueue) push(it *queued) { *q.slot() = *it }

// slot appends a zero item to the queue and returns it for the caller to
// fill in place.
func (q *upQueue) slot() *queued {
	q.items = append(q.items, queued{})
	return &q.items[len(q.items)-1]
}

// pop moves the head item into dst.
func (q *upQueue) pop(dst *queued) {
	*dst = q.items[q.head]
	q.items[q.head] = queued{}
	q.head++
	if q.head > 256 && q.head*2 >= len(q.items) {
		// Compact in place: slide the live suffix down and truncate, so
		// the drain path reuses one backing array instead of allocating.
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = queued{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// reset drops the queue's contents and empties its dedup window.
func (q *upQueue) reset() {
	q.items = nil
	q.head = 0
	q.stalled = false
	q.park = nil
	q.parked = nil
	q.recent.Reset()
}

// IngestExternal admits one externally sensed tuple on source operator
// src through the arrival door (admit). The workload driver calls this on
// the phone currently hosting the source. A node that has handed its slot
// off relays the tuple to the replacement: the region's ingest dispatch
// follows the slot only once the new host has installed the transfer, and
// external input admitted in that window must reach the new home rather
// than be dropped. The node
// admits a copy carved from its ingest slab, so the caller may build t on
// its stack and keeps ownership of it.
func (n *Node) IngestExternal(src graph.OpID, t *tuple.Tuple) {
	n.IngestExternalTraced(src, t, obs.SpanCtx{})
}

// IngestExternalTraced is IngestExternal carrying a sampled trace context
// (zero = untraced). The region's ingest path records the ingest span and
// passes the context here; it rides the queued item to the executor. The
// tuple's Created stamp, which that path has just read off the clock, is
// also its enqueue time.
func (n *Node) IngestExternalTraced(src graph.OpID, t *tuple.Tuple, tc obs.SpanCtx) {
	n.mu.Lock()
	c := n.ingest.Clone(t)
	s := n.life.Load()
	if d := s.admit(true); d != doorEnqueue {
		n.divertLocked(d, s.target, &streamMsg{FromSlot: graph.ExternalSlot, FromOp: graph.NoOp, ToOp: src, EdgeSeq: c.Seq, Trace: tc, Item: tuple.DataItem(c)})
		return
	}
	q := n.queueFor(graph.ExternalSlot)
	if q == nil {
		n.mu.Unlock()
		return
	}
	*q.slot() = queued{fromOp: graph.NoOp, toOp: src, item: tuple.DataItem(c), tc: tc, at: c.Created}
	if q.depth != nil {
		if w := q.depthTicks.weight(false); w > 0 {
			q.depth.ObserveN(int64(q.len()), w)
		}
	}
	n.cond.Signal()
	n.mu.Unlock()
}

// queueFor resolves a stream's origin slot to its upstream queue through
// the hosted pipeline's upIdx table, or nil when this node hosts no slot
// the origin feeds. Caller holds n.mu, under which the pipeline and qList
// change only together.
func (n *Node) queueFor(from graph.SlotID) *upQueue {
	p := n.pipe.Load()
	if p == nil {
		return nil
	}
	if qi := p.upstreamOf(from); qi >= 0 && qi < len(n.qList) {
		return n.qList[qi]
	}
	return nil
}

// enqueueStream delivers a cross-slot stream message into its upstream
// queue, suppressing duplicates below the edge-sequence watermark, once
// the arrival door (admit) lets it in.
func (n *Node) enqueueStream(m *streamMsg) {
	n.mu.Lock()
	s := n.life.Load()
	if d := s.admit(false); d != doorEnqueue {
		n.divertLocked(d, s.target, m)
		return
	}
	defer n.mu.Unlock()
	q := n.queueFor(m.FromSlot)
	if q == nil {
		return
	}
	it := queued{fromOp: m.FromOp, toOp: m.ToOp, edgeSeq: m.EdgeSeq, item: m.Item, tc: m.Trace, at: n.clk.Now()}
	if n.obsReg != nil && it.tc.ID != 0 {
		n.tracer.Record(&it.tc, obs.SpanRecv, string(n.id), n.graph.SlotName(m.ToSlot), n.graph.OpName(m.ToOp), int64(it.at))
	}
	n.tracePark(q, &it, m)
	if acceptLocked(q, &it, m.FromSlot) {
		if q.depth != nil {
			q.depth.Observe(int64(q.len()))
		}
		n.cond.Signal()
	}
}

// acceptLocked puts an arrival from slot from into its queue q and reports
// whether anything became deliverable. Relayed external input (from a node
// that handed this slot off) and tuples rerouted by a keyed peer that no
// longer owns their key are admitted exactly once upstream, each relay
// being one reliable unicast, and carry no per-edge sequence: they bypass
// edge-sequence dedup. Caller holds n.mu.
func acceptLocked(q *upQueue, it *queued, from graph.SlotID) bool {
	if from == graph.ExternalSlot || from == graph.RerouteSlot {
		it.edgeSeq = 0
		q.push(it)
		return true
	}
	return q.enqueue(it)
}

// tracePark records the park span of a traced arrival about to park (out
// of order on an ordered queue), before the queue copies it into the heap.
func (n *Node) tracePark(q *upQueue, it *queued, m *streamMsg) {
	if it.tc.ID == 0 || !q.ordered || it.edgeSeq <= q.lastEnq+1 {
		return
	}
	if _, dup := q.parked[it.edgeSeq]; !dup {
		n.tracer.Record(&it.tc, obs.SpanPark, string(n.id), n.graph.SlotName(m.ToSlot), n.graph.OpName(m.ToOp), int64(it.at))
	}
}

// enqueueStreamBatch unbatches a coalesced delivery into its upstream
// queues under one lock acquisition — the receive half of edge batching.
// The arrival door (admit) decides for the batch as a whole.
func (n *Node) enqueueStreamBatch(bm *batchMsg) {
	if len(bm.Msgs) == 0 {
		return
	}
	n.mu.Lock()
	switch s := n.life.Load(); s.admit(false) {
	case doorRelay:
		n.mu.Unlock()
		n.relay(s.target, simnet.ClassData, bm.wireSize(), bm) // the batch goes with it
		return
	case doorBuffer:
		for i := range bm.Msgs {
			n.bufferEarlyLocked(&bm.Msgs[i])
		}
		fallthrough
	case doorDrop:
		n.mu.Unlock()
		recycleBatch(bm)
		return
	}
	from := bm.Msgs[0].FromSlot
	q := n.queueFor(from)
	var at time.Duration
	if n.obsReg != nil {
		at = n.clk.Now()
	}
	// A batch comes from one upstream slot, so its queue is resolved once;
	// last is the queue of the last accepted enqueue, whose depth is
	// observed once for the whole delivery.
	var last *upQueue
	var it queued
	for i := range bm.Msgs {
		m := &bm.Msgs[i]
		if m.FromSlot != from {
			from = m.FromSlot
			if q = n.queueFor(from); q == nil {
				continue
			}
		} else if q == nil {
			continue
		}
		it = queued{fromOp: m.FromOp, toOp: m.ToOp, edgeSeq: m.EdgeSeq, item: m.Item, tc: m.Trace, at: at}
		if it.tc.ID != 0 {
			n.tracer.Record(&it.tc, obs.SpanRecv, string(n.id), n.graph.SlotName(m.ToSlot), n.graph.OpName(m.ToOp), int64(at))
			n.tracePark(q, &it, m)
		}
		if acceptLocked(q, &it, m.FromSlot) {
			last = q
		}
	}
	if last != nil && last.depth != nil {
		last.depth.Observe(int64(last.len()))
	}
	n.mu.Unlock()
	if last != nil {
		n.cond.Signal()
	}
	recycleBatch(bm)
}
