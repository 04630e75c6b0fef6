package node

import (
	"sync/atomic"
	"time"

	"mobistreams/internal/graph"
)

// QoS is the output-path quality-of-service configuration: the latency
// budget that adapts batch-flush deadlines and the bounds on edge-level
// tuple batching. The zero value batches with the default bounds and a
// fixed 20 ms flush deadline.
type QoS struct {
	// LatencyBudget is the end-to-end latency target for tuples flowing
	// from this graph's sources to its sinks. Non-zero enables adaptive
	// output batching (Nephele-style): each slot receives
	// budget / (longest remaining batching-hop count to a sink) as its
	// flush-deadline share, and tunes the live deadline inside that share
	// — a latency-triggered flush that went out mostly empty shrinks it
	// (the stream is too slow to fill batches inside the deadline), a
	// size-triggered flush grows it back toward the share.
	LatencyBudget time.Duration
	// MaxBatchMsgs flushes a batch at this many messages (default 32; 1
	// sends every message on its own).
	MaxBatchMsgs int
}

// minFlush floors the adaptive flush deadline: however empty a slot's
// latency-triggered flushes go out, its deadline never shrinks below it.
const minFlush = time.Millisecond

// slotHops is the longest chain of cross-slot edges from slot to a sink
// slot — the number of batching hops an emission from this slot may wait
// on. Sink slots report 0. A cycle in the slot projection (ops bouncing
// between two slots) contributes no further depth.
func slotHops(g *graph.Graph, slot string) int {
	memo := make(map[string]int)
	stack := make(map[string]bool)
	var visit func(s string) int
	visit = func(s string) int {
		if v, ok := memo[s]; ok {
			return v
		}
		if stack[s] {
			return 0
		}
		stack[s] = true
		best := 0
		for _, d := range g.SlotDownstreams(s) {
			if h := visit(d) + 1; h > best {
				best = h
			}
		}
		delete(stack, s)
		memo[s] = best
		return best
	}
	return visit(slot)
}

// slotBudgetShare splits the end-to-end latency budget evenly across the
// batching hops between this slot and the sinks: the per-slot flush
// deadline cap the adaptive batcher works under. Zero when QoS batching
// is off or the slot feeds no further slot.
func (n *Node) slotBudgetShare(slot string) time.Duration {
	if n.cfg.QoS.LatencyBudget <= 0 {
		return 0
	}
	hops := slotHops(n.graph, slot)
	if hops < 1 {
		return 0
	}
	return n.cfg.QoS.LatencyBudget / time.Duration(hops)
}

// setBudget installs (or clears) the batcher's adaptive deadline range:
// the slot's budget share as the cap and initial deadline, min as the
// floor. share <= 0 disables adaptation (fixedFlushInterval applies).
func (b *batcher) setBudget(share, min time.Duration) {
	if share <= 0 {
		atomic.StoreInt64(&b.capNs, 0)
		atomic.StoreInt64(&b.deadlineNs, 0)
		return
	}
	if min <= 0 || min > share {
		min = share
	}
	atomic.StoreInt64(&b.minNs, int64(min))
	atomic.StoreInt64(&b.capNs, int64(share))
	atomic.StoreInt64(&b.deadlineNs, int64(share))
}

// flushInterval is the live latency bound the flush loop waits on: the
// adaptive deadline when QoS batching is on, the fixed interval otherwise.
func (b *batcher) flushInterval() time.Duration {
	if d := atomic.LoadInt64(&b.deadlineNs); d > 0 {
		return time.Duration(d)
	}
	return fixedFlushInterval
}

// noteSizeFlush records a size-triggered flush: batches are filling
// before the deadline, so the deadline can grow back toward the slot's
// budget share, coalescing more per send.
func (b *batcher) noteSizeFlush() {
	cap := atomic.LoadInt64(&b.capNs)
	if cap == 0 {
		return
	}
	cur := atomic.LoadInt64(&b.deadlineNs)
	if next := cur + cur/4; next < cap {
		atomic.StoreInt64(&b.deadlineNs, next)
	} else {
		atomic.StoreInt64(&b.deadlineNs, cap)
	}
}

// noteLatencyFlush records a latency-triggered flush carrying msgs
// messages: a mostly-empty batch means the stream cannot fill batches
// inside the deadline, so the deadline shrinks toward the floor — tuples
// stop paying coalescing wait the workload cannot use.
func (b *batcher) noteLatencyFlush(msgs int) {
	cap := atomic.LoadInt64(&b.capNs)
	if cap == 0 || msgs >= b.maxMsgs/2 {
		return
	}
	cur := atomic.LoadInt64(&b.deadlineNs)
	min := atomic.LoadInt64(&b.minNs)
	if next := cur - cur/4; next > min {
		atomic.StoreInt64(&b.deadlineNs, next)
	} else {
		atomic.StoreInt64(&b.deadlineNs, min)
	}
}

// pendingMsgs counts the messages waiting across all partial batches
// (adaptive feedback for latency-triggered flushes; off the hot path).
func (b *batcher) pendingMsgs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for _, eb := range b.pending {
		if eb.b != nil {
			total += len(eb.b.Msgs)
		}
	}
	return total
}
