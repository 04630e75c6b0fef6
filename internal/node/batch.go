package node

import (
	"sync"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/simnet"
)

// fixedFlushInterval bounds how long a partial batch may wait, in simulated
// time, when no QoS latency budget adapts the deadline.
const fixedFlushInterval = 20 * time.Millisecond

// batchPool recycles the *batchMsg batches are assembled in and shipped
// as, each keeping its Msgs capacity, so the steady-state emission path
// allocates nothing per batch. A batch is owned by one party at a time:
// the batcher while it fills, then whoever the send hands the pointer to.
// The receiver recycles it after unbatching; a relay passes it on.
var batchPool sync.Pool

func takeBatch() *batchMsg {
	if b, _ := batchPool.Get().(*batchMsg); b != nil {
		return b
	}
	return &batchMsg{Msgs: make([]streamMsg, 0, 64)}
}

// recycleBatch zeroes a batch and returns it to the pool. Callers must have
// copied out every field they keep; tuple payloads are reached through
// pointers, which survive the zeroing. Entries past len(Msgs) are already
// zero: only appends write them, and every recycle clears what they wrote.
func recycleBatch(b *batchMsg) {
	clear(b.Msgs)
	b.Msgs = b.Msgs[:0]
	batchPool.Put(b)
}

// batcher coalesces a node's cross-slot emissions per destination slot
// into one network send, cutting the per-message medium, lock and channel
// overhead on the ingress hot path. A batch flushes when it reaches
// maxMsgs messages or maxBytes payload bytes, when an in-band marker joins
// it (markers must not be delayed — checkpoint alignment depends on their
// timing), or when the flush deadline passes with the batch still partial.
//
// Concurrency: the executor appends under mu; flushes (size-triggered from
// the executor, latency-triggered from the flush loop) serialise through
// sendMu, and a flush extracts the pending batch only after acquiring
// sendMu — so batches leave in exactly the order they were cut, and edge
// FIFO order survives concurrent flushers.
type batcher struct {
	n *Node
	// The size bounds: QoS.MaxBatchMsgs with its default resolved, and
	// maxBatchBytes (a test may lower it).
	maxMsgs, maxBytes int

	mu sync.Mutex
	// pending holds one edgeBatch per downstream edge, indexed like the
	// pipeline's downs (downs names each entry's destination); open counts
	// the entries holding a batch. Both are resized only by setDowns, when
	// a slot is configured and nothing is pending, so the per-tuple path
	// indexes and never allocates.
	pending []edgeBatch
	downs   []graph.SlotID
	open    int

	// kick wakes the flush loop when a partial batch starts waiting.
	kick chan struct{}

	sendMu sync.Mutex

	// Adaptive flush deadline (QoS latency budget), all in nanoseconds and
	// accessed atomically. capNs is the slot's budget share (0 = adaptation
	// off, fixedFlushInterval applies), minNs the floor, deadlineNs the
	// live deadline the flush loop waits on. See qos.go.
	deadlineNs int64
	capNs      int64
	minNs      int64
}

// edgeBatch is the pending batch for one destination slot (b nil when
// none is waiting).
type edgeBatch struct {
	b     *batchMsg
	bytes int
}

// maxBatchBytes flushes a batch at this many payload bytes: one WiFi
// airtime chunk, so a batch never monopolises the medium against
// interleaving checkpoint traffic.
const maxBatchBytes = 64 << 10

func newBatcher(n *Node, q QoS) *batcher {
	b := &batcher{
		n:        n,
		maxMsgs:  q.MaxBatchMsgs,
		maxBytes: maxBatchBytes,
		kick:     make(chan struct{}, 1),
	}
	if b.maxMsgs <= 0 {
		b.maxMsgs = 32
	}
	return b
}

// setDowns sizes the per-edge state for a newly configured slot's
// downstream slots. Nothing may be pending.
func (b *batcher) setDowns(downs []graph.SlotID) {
	b.mu.Lock()
	b.downs = downs
	b.pending = make([]edgeBatch, len(downs))
	b.open = 0
	b.mu.Unlock()
}

// add appends one emission to the pending batch of downstream edge down,
// flushing immediately when a bound is hit or the message is an in-band
// marker. The message is copied into the batch in place.
func (b *batcher) add(down int, msg *streamMsg) {
	b.mu.Lock()
	eb := &b.pending[down]
	started := eb.b == nil
	if started {
		eb.b = takeBatch()
		b.open++
	}
	eb.b.Msgs = append(eb.b.Msgs, *msg)
	eb.bytes += msg.Item.WireSize()
	urgent := msg.Item.Marker != nil
	full := len(eb.b.Msgs) >= b.maxMsgs || eb.bytes >= b.maxBytes
	b.mu.Unlock()
	if urgent || full {
		b.flushDown(down)
		if full && !urgent {
			b.noteSizeFlush()
		}
		return
	}
	// Only a batch that starts waiting needs the flush loop: the loop runs
	// until no batch is pending, so it has not stopped since any older
	// batch still pending here started (and kicked it).
	if started {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
}

// takeLocked removes edge down's pending batch. Caller holds mu.
func (b *batcher) takeLocked(down int) edgeBatch {
	eb := b.pending[down]
	if eb.b != nil {
		b.pending[down] = edgeBatch{}
		b.open--
	}
	return eb
}

// flushDown sends edge down's pending batch, if any.
func (b *batcher) flushDown(down int) {
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	b.mu.Lock()
	eb := b.takeLocked(down)
	to := b.downs[down]
	b.mu.Unlock()
	if eb.b != nil {
		b.n.sendBatch(to, eb.b, eb.bytes, simnet.ClassData)
	}
}

// flushAll drains every pending batch in downstream order (latency-bound
// flush, handoff).
func (b *batcher) flushAll() {
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	for down := 0; ; down++ {
		b.mu.Lock()
		if b.open == 0 || down >= len(b.pending) {
			b.mu.Unlock()
			return
		}
		eb := b.takeLocked(down)
		to := b.downs[down]
		b.mu.Unlock()
		if eb.b != nil {
			b.n.sendBatch(to, eb.b, eb.bytes, simnet.ClassData)
		}
	}
}

// discardAll drops every pending batch without sending (restore rewound
// the emission sequences; the replay regenerates this output). It takes
// only the pending lock, so a flusher blocked in a delivery retry cannot
// stall a restore.
func (b *batcher) discardAll() {
	b.mu.Lock()
	for down := range b.pending {
		if eb := b.takeLocked(down); eb.b != nil {
			recycleBatch(eb.b)
		}
	}
	b.mu.Unlock()
}

// pendingSlots reports how many destinations have a partial batch waiting.
func (b *batcher) pendingSlots() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// flushLoop is the latency bound: while partial batches are pending it
// flushes them at every flush deadline of simulated time, then parks until the
// next emission kicks it. Size- and marker-triggered flushes happen inline
// on the executor, so correctness never waits on this loop.
func (n *Node) flushLoop() {
	defer n.wg.Done()
	deadline := n.clk.NewTimer(0) // fired already: every wait re-arms it
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.batch.kick:
		}
		for n.batch.pendingSlots() > 0 {
			deadline.Reset(n.batch.flushInterval())
			select {
			case <-n.stopCh:
				deadline.Stop()
				return
			case <-deadline.C():
				n.batch.noteLatencyFlush(n.batch.pendingMsgs())
				n.batch.flushAll()
			}
		}
	}
}
