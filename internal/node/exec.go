package node

import (
	"sync/atomic"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// noStamp stands for "no current clock reading" where the executor passes
// one around (clocks never report a negative time).
const noStamp = time.Duration(-1)

// timeEvery is how sparsely the executor times items: one in every
// timeEvery a queue delivers, observed with weight timeEvery (ObserveN).
const timeEvery = 8

// sampler counts one queue's items and picks those the executor times: one
// per block of timeEvery, the first block's first, at a position a
// golden-ratio hash of the block number spreads evenly, so a cost recurring
// every k items (a batch flush) is sampled at its true rate. Per queue, or
// round-robin could hand every pick to one queue.
type sampler uint32

// due reports whether the queue's next item is picked.
func (s *sampler) due() bool {
	n := uint32(*s)
	return n%timeEvery == (n/timeEvery*2654435761)>>24%timeEvery
}

// weight counts one item and returns its observation weight: timeEvery
// when picked, 1 for a traced item off the pick, else 0.
func (s *sampler) weight(traced bool) uint64 {
	picked := s.due()
	*s++
	switch {
	case picked:
		return timeEvery
	case traced:
		return 1
	}
	return 0
}

// execCmd is a high-priority executor command.
type execCmd struct {
	snapshot uint64 // snapshot now at this version (local/dist-n)
	resendTo string // downstream slot to resend retained output to
	after    uint64
}

// injectCmd queues a high-priority executor command.
func (n *Node) injectCmd(c execCmd) {
	n.mu.Lock()
	n.cmds = append(n.cmds, c)
	n.mu.Unlock()
	n.cond.Signal()
}

// execLoop is the executor: it owns the operators and all stream state.
func (n *Node) execLoop() {
	defer n.wg.Done()
	// firedLast alternates timer-vs-queue priority: due timers normally
	// preempt queued tuples (window closes must not starve behind a
	// saturated stream), but directly after a timer dispatch the queues
	// get one turn first, so an operator bug that re-arms an already-due
	// timer cannot starve tuple processing either.
	firedLast := false
	// boundary is the clock reading taken as the last tuple finished (a
	// timed tuple's end stamp, or one taken because the next is timed), or
	// noStamp. When the executor goes straight on to a queued item, the
	// reading also serves as that item's dequeue stamp and its first
	// operator's latency start; anything in between that takes time
	// (parking, a flush, a command, timers, a marker) discards it.
	boundary := noStamp
	preserves := n.cfg.Scheme.PreservesAtSources()
	// it is the executor-owned slot the next item is popped into; it is
	// cleared after handling so a parked executor pins no tuple.
	var it queued
	for {
		n.mu.Lock()
		var cmd *execCmd
		var qi int
		var run []queued
		var have bool
		var fireTimers bool
		for {
			life := n.life.Load()
			if life.role.dead() {
				n.mu.Unlock()
				return
			}
			if life.pauses == 0 {
				if len(n.cmds) > 0 {
					c := n.cmds[0]
					n.cmds = n.cmds[1:]
					cmd = &c
					break
				}
				// Due operator timers take priority over queued tuples
				// (except right after a timer dispatch, see firedLast):
				// a saturated stream must not starve window closes past
				// their boundary. Slots without pending timers pay one
				// slice-length check here — the clock is only read once
				// a timer is actually pending.
				timersDue := func() bool {
					p := n.pipe.Load()
					return p != nil && len(p.timers) > 0 && p.timerDue(n.clk.Now())
				}
				if !firedLast && timersDue() {
					fireTimers = true
					break
				}
				qi, have = n.nextItemLocked(&it)
				if have {
					if preserves && n.pipe.Load().upstreams[qi] == graph.ExternalSlot {
						run = n.popRunLocked(n.qList[qi], &it, 0)
					}
					break
				}
				if firedLast && timersDue() {
					fireTimers = true
					break
				}
			}
			boundary = noStamp
			// Out of runnable work: opportunistically ship any partial
			// batches before parking, so a low-rate stream's delivery is
			// as prompt as the unbatched path instead of waiting on the
			// flush timer. Size- and marker-bound flushes already happen
			// inline; this covers the trickle case.
			if n.batch.pendingSlots() > 0 {
				n.mu.Unlock()
				n.batch.flushAll()
				n.mu.Lock()
				continue // arrivals during the flush re-enter the checks
			}
			// Parking with a pending timer: arm a wake goroutine for the
			// earliest deadline, so an idle stream still closes windows.
			// A newly registered timer earlier than the armed wake gets
			// its own goroutine — the stale later wake fires harmlessly.
			if life.pauses == 0 {
				if p := n.pipe.Load(); p != nil {
					if at, ok := p.nextTimerAt(); ok && (!n.timerArmed || at < n.timerWakeAt) {
						n.timerArmed = true
						n.timerWakeAt = at
						go n.wakeAtTimer(at)
					}
				}
			}
			n.execParked = true
			n.cond.Broadcast()
			n.cond.Wait()
		}
		n.execParked = false
		n.mu.Unlock()

		firedLast = fireTimers
		now := boundary
		boundary = noStamp
		switch {
		case cmd != nil && cmd.resendTo != "":
			n.doResend(cmd.resendTo, cmd.after)
		case cmd != nil:
			n.doPeriodicSnapshot(cmd.snapshot)
		case fireTimers:
			if p := n.pipe.Load(); p != nil {
				n.fireDueTimers(p)
			}
		case have:
			if p := n.pipe.Load(); p != nil {
				if run != nil {
					boundary = n.handleRun(p, qi, run, now)
				} else {
					boundary = n.handleItem(p, qi, &it, now)
				}
			}
			it = queued{}
		}
	}
}

// nextItemLocked round-robins across unstalled non-empty queues, popping
// the next item into dst and returning its queue's pipeline upstream index.
func (n *Node) nextItemLocked(dst *queued) (int, bool) {
	for i := 0; i < len(n.qList); i++ {
		qi := (n.rr + i) % len(n.qList)
		q := n.qList[qi]
		if q.stalled || q.len() == 0 {
			continue
		}
		n.rr = (n.rr + i + 1) % len(n.qList)
		q.pop(dst)
		return qi, true
	}
	return -1, false
}

// handleItem processes one stream item (tuple or marker). The data path is
// lock-free: watermarks advance on the pipeline's atomic counters and the
// operator chain runs against the compiled routes.
//
// The item is timed when its queue's sampler picks it or it is traced. now
// is a clock reading still current at the call (see execLoop), else
// noStamp. The return value is the reading taken as the item finished (when
// it or its queue's next item is timed), or noStamp.
func (n *Node) handleItem(p *pipeline, qi int, it *queued, now time.Duration) time.Duration {
	from := p.upstreams[qi]
	if it.item.Marker != nil {
		switch it.item.Marker.Kind {
		case tuple.MarkerToken:
			n.onToken(p, qi, it.item.Marker.Version, it.edgeSeq)
		case tuple.MarkerReplayEnd:
			n.onReplayEnd(p, qi, it.item.Marker.Version)
		}
		return noStamp
	}
	t := it.item.Tuple
	atomic.AddUint64(&n.processed, 1)
	n.curReady = it.at
	if n.obsReg != nil {
		if n.opWeight = p.timing[qi].weight(it.tc.ID != 0); n.opWeight > 0 {
			if now < it.at { // no stamp, or the item was enqueued after it
				now = n.clk.Now()
			}
			if h := p.edgeWait[qi]; h != nil && it.at > 0 {
				h.ObserveN(int64(now-it.at), n.opWeight)
			}
			if it.tc.ID != 0 {
				n.curTrace = it.tc
				n.tracer.Record(&n.curTrace, obs.SpanDequeue, string(n.id), p.slot, n.graph.OpName(it.toOp), int64(now))
			}
		}
	}
	switch from {
	case graph.ExternalSlot:
		n.forwardExternalToStandby(p, it.toOp, t)
	case graph.RerouteSlot:
		// Rerouted tuples carry no edge sequence; no watermark to advance.
	default:
		p.noteInHW(qi, it.edgeSeq)
	}
	// A keyed instance popping a tuple for a key range that moved away
	// (queued before the partition table flipped) relays it to the new
	// owner instead of running it — the split/merge exactly-once path.
	if p.keyedGroup != nil {
		if owner := p.keyedGroup.Owner(t.Kind); owner != p.keyedInst {
			n.rerouteToOwner(p, owner, t)
			n.curTrace, n.curReady, n.opWeight = obs.SpanCtx{}, 0, 1
			return noStamp
		}
	}
	end := noStamp
	if idx := p.opFor(it.toOp); idx >= 0 {
		end = n.runOp(p, idx, n.graph.OpName(it.fromOp), t, now)
	}
	n.curTrace, n.curReady, n.opWeight = obs.SpanCtx{}, 0, 1
	if end == noStamp && n.obsReg != nil && p.timing[qi].due() {
		end = n.clk.Now()
	}
	return end
}

// forwardExternalToStandby duplicates externally admitted input to the
// slot's standby replica under rep-2, so both replicas build the same
// state. This is part of the replication network overhead (Fig. 10b).
func (n *Node) forwardExternalToStandby(p *pipeline, src graph.OpID, t *tuple.Tuple) {
	if !n.cfg.Scheme.Replicated() {
		return
	}
	if n.life.Load().role != RolePrimary {
		return
	}
	seq := n.extFwdSeq.Add(1)
	standby, ok := n.resolveStandby(p.slotID)
	if !ok {
		return
	}
	msg := streamMsg{FromSlot: graph.ExternalSlot, ToSlot: p.slotID, FromOp: graph.NoOp, ToOp: src, EdgeSeq: seq, Item: tuple.DataItem(t)}
	if err := n.cfg.WiFi.Unicast(n.id, standby, simnet.ClassReplication, t.Size, msg); err == nil {
		n.cfg.Phone.DrainTx(t.Size)
	}
}

// runOp executes one operator on a tuple, charging its service time. The
// operator emits through its bound Context as it processes: in-slot
// targets recurse synchronously, cross-slot targets ride the region
// network, and sink operators publish externally (see opSink), with zero
// per-tuple allocation. No lock is taken and no map is consulted. At
// opWeight 0 it reads no clock.
//
// start is the operator's latency start stamp when the caller already holds
// a current clock reading (the executor's dequeue stamp), else noStamp and
// runOp reads the clock itself. It returns the latency end stamp, or
// noStamp when it took none.
func (n *Node) runOp(p *pipeline, idx int, fromOp string, t *tuple.Tuple, start time.Duration) time.Duration {
	c := &p.ops[idx]
	if cost := c.op.Cost(t); cost > 0 {
		if !n.cfg.Phone.ExecFrom(n.clk, n.curReady, cost) {
			n.Fail()
			return noStamp
		}
		n.maybeReportChronic()
	}
	if c.lat == nil || n.opWeight == 0 {
		_ = c.proc(c.ctx, fromOp, t) // an operator error costs only this tuple
		return noStamp
	}
	if start == noStamp {
		start = n.clk.Now()
	}
	if n.curTrace.ID != 0 {
		n.tracer.Record(&n.curTrace, obs.SpanOp, string(n.id), p.slot, c.id, int64(start))
	}
	_ = c.proc(c.ctx, fromOp, t) // an operator error costs only this tuple
	end := n.clk.Now()
	c.lat.ObserveN(int64(end-start), n.opWeight)
	return end
}

// fireDueTimers runs the pending operator timers whose simulated-time
// deadline has passed, on the executor at a tuple boundary. Emissions from
// OnTimer flow through the operator's Context exactly like Process
// emissions. The drain is bounded to the timers pending at entry: a timer
// an OnTimer handler re-registers with an already-due deadline waits for
// the next boundary instead of spinning this one forever.
func (n *Node) fireDueTimers(p *pipeline) {
	now := n.clk.Now()
	for pending := len(p.timers); pending > 0; pending-- {
		tm, ok := p.popDueTimer(now)
		if !ok {
			return
		}
		c := &p.ops[tm.op]
		if c.timer == nil {
			continue
		}
		_ = c.timer.OnTimer(c.ctx, tm.at) // an operator error costs only this firing
	}
}

// wakeAtTimer unparks the executor when the earliest pending operator
// timer comes due, so windows close on time on an otherwise idle stream.
// Only the wake matching the currently tracked deadline clears the armed
// flag; superseded later wakes just broadcast harmlessly.
func (n *Node) wakeAtTimer(at time.Duration) {
	if d := at - n.clk.Now(); d > 0 {
		wake := n.clk.NewTimer(d)
		select {
		case <-wake.C():
		case <-n.stopCh:
			wake.Stop()
		}
	}
	n.mu.Lock()
	if n.timerArmed && n.timerWakeAt == at {
		n.timerArmed = false
	}
	n.mu.Unlock()
	n.cond.Broadcast()
}

// followRoute delivers one emission of operator from along a compiled route.
func (n *Node) followRoute(p *pipeline, from *compiledOp, r route, t *tuple.Tuple) {
	if r.local >= 0 {
		n.runOp(p, r.local, from.id, t, noStamp)
		return
	}
	n.sendCross(p, r.down, r.toOp, from.gid, tuple.DataItem(t))
}

func (n *Node) maybeReportChronic() {
	if n.chronicReported || !n.cfg.Phone.BatteryChronic() {
		return
	}
	n.chronicReported = true
	n.report(Report{Type: RepChronicBattery, Phone: n.id})
}

// emitExternal publishes a sink result unless the node is a standby or a
// sink withholding catch-up output (§III-D).
func (n *Node) emitExternal(t *tuple.Tuple) {
	if r := n.life.Load().role; r == RoleStandby || r == roleCatchingUp {
		return
	}
	if n.curTrace.ID != 0 {
		slot := ""
		if p := n.pipe.Load(); p != nil {
			slot = p.slot
		}
		n.tracer.Record(&n.curTrace, obs.SpanSink, string(n.id), slot, "", int64(n.clk.Now()))
	}
	if n.cfg.OnSinkOutput != nil {
		n.cfg.OnSinkOutput(t)
	}
}

// sendCross ships one item to an operator on another slot. Emissions are
// coalesced per destination slot by the batcher, which flushes on size,
// latency, or an in-band marker, and delivers with urgent-mode cellular
// fallback and failure reporting (§III-D, §III-E).
func (n *Node) sendCross(p *pipeline, down int, toOp, fromOp graph.OpID, item tuple.Item) {
	seq := p.nextOutSeq(down)
	if n.life.Load().role == RoleStandby {
		return // sequence kept aligned with the primary, nothing sent
	}
	msg := streamMsg{FromSlot: p.slotID, FromOp: fromOp, ToSlot: p.downs[down], ToOp: toOp, EdgeSeq: seq, Item: item}
	if n.cfg.Scheme.PreservesAtEdges() && item.Tuple != nil {
		// Classic input preservation writes every retained output to
		// flash on the data path — part of local/dist-n's steady-state
		// overhead (§IV-B).
		n.cfg.Store.AppendEdge(n.graph.SlotName(msg.ToSlot), seq, n.graph.OpName(fromOp), n.graph.OpName(toOp), item.Tuple)
		n.clk.Sleep(n.cfg.Phone.FlashWriteTime(item.Tuple.Size))
	}
	if n.curTrace.ID != 0 {
		n.tracer.Record(&n.curTrace, obs.SpanEmit, string(n.id), p.slot, n.graph.OpName(fromOp), int64(n.clk.Now()))
		msg.Trace = n.curTrace
	}
	n.batch.add(down, &msg)
}

// sendBatch ships one flushed batch to the destination slot's primary and,
// for fresh data under rep-2, a replica copy to its standby. The batch goes
// with the send: its receiver recycles it. Callers hold the batcher's send
// mutex, which keeps edge FIFO order across concurrent flushers.
func (n *Node) sendBatch(toSlot graph.SlotID, b *batchMsg, bytes int, class simnet.Class) {
	msgs := b.Msgs
	if n.batchSizes != nil {
		n.batchSizes.Observe(int64(len(msgs)))
	}
	// Traced messages record their batch-flush/network-send span here —
	// the delta from their emit span is the batch wait. Gated on active
	// sampling so untraced runs never scan the batch.
	if n.tracer.SampleEvery() > 0 {
		for i := range msgs {
			if msgs[i].Trace.ID != 0 {
				n.tracer.Record(&msgs[i].Trace, obs.SpanSend, string(n.id),
					n.graph.SlotName(msgs[i].FromSlot), n.graph.OpName(msgs[i].FromOp), int64(n.clk.Now()))
			}
		}
	}
	// The standby gets its own batch, cut before the primary send: the
	// primary's dispatcher recycles the batch it unbatches, so sharing it —
	// or copying from it after delivery — races with the zeroing.
	var replica *batchMsg
	if class == simnet.ClassData && n.cfg.Scheme.Replicated() {
		replica = takeBatch()
		replica.Msgs = append(replica.Msgs, msgs...)
	}
	n.deliverData(toSlot, bytes, b, class)
	if replica != nil {
		if standby, ok := n.resolveStandby(toSlot); ok {
			if err := n.cfg.WiFi.Unicast(n.id, standby, simnet.ClassReplication, bytes, replica); err == nil {
				n.cfg.Phone.DrainTx(bytes)
			}
		} else {
			recycleBatch(replica) // standby gone (promoted): copy unused
		}
	}
}

// reportAfterAttempts failed delivery attempts trigger the failure report
// that starts controller-side recovery (§III-D); delivery keeps retrying
// afterwards.
const reportAfterAttempts = 3

// maxDeliveryAttempts bounds the full retry horizon (~6 s of simulated
// time at 200 ms per attempt). A coalesced batch carries many tuples, so
// it must not be dropped wholesale on the first sign of trouble: the
// resolver is re-consulted every attempt, and once recovery re-points the
// slot (promotion, replacement) the batch lands at the new primary.
const maxDeliveryAttempts = 30

// markerDeliveryAttempts is the longer horizon (~60 s simulated) for
// deliveries carrying an in-band marker. Markers gate the alignment
// protocols — a dropped token stalls the checkpoint round, and a dropped
// replay-end marker leaves a suppressing sink wedged forever — so they
// keep retrying across a recovery window that would exhaust the data
// horizon.
const markerDeliveryAttempts = 300

// payloadCarriesMarker reports whether a delivery payload contains an
// in-band marker (alone or coalesced into a batch).
func payloadCarriesMarker(payload interface{}) bool {
	switch p := payload.(type) {
	case streamMsg:
		return p.Item.Marker != nil
	case *batchMsg:
		for i := range p.Msgs {
			if p.Msgs[i].Item.Marker != nil {
				return true
			}
		}
	}
	return false
}

// deliverData resolves the destination slot's phone and sends reliably,
// falling back to the cellular network (urgent mode) when the WiFi path is
// broken. After reportAfterAttempts failures it reports the destination
// failed — kicking off recovery — and keeps retrying while the region
// re-points the slot, giving up only past the full retry horizon. The
// resolution rides the epoch-stamped route cache: a placement change bumps
// the region epoch, so retries observe re-points without paying the
// resolver round-trip per attempt.
func (n *Node) deliverData(toSlot graph.SlotID, size int, payload interface{}, class simnet.Class) {
	gen := atomic.LoadUint64(&n.sendGen)
	attempts := maxDeliveryAttempts
	if payloadCarriesMarker(payload) {
		attempts = markerDeliveryAttempts
	}
	var target simnet.NodeID
	for i := 0; i < attempts; i++ {
		if i > 0 {
			n.clk.Sleep(200 * time.Millisecond)
		}
		if atomic.LoadUint64(&n.sendGen) != gen {
			// The node restored mid-retry: this payload predates the
			// rewind, and its edge sequences will be re-emitted. A late
			// stale delivery would poison the receiver's dedup state
			// against those re-emissions.
			return
		}
		var ok bool
		if target, ok = n.resolvePrimary(toSlot); ok {
			if err := n.cfg.WiFi.Unicast(n.id, target, class, size, payload); err == nil {
				n.cfg.Phone.DrainTx(size)
				return
			}
			// Urgent mode: detour over the cellular network (§III-E).
			if n.cfg.Cell != nil && n.cfg.Cell.Attached(target) {
				if err := n.cfg.Cell.Send(n.id, target, class, size, payload); err == nil {
					n.cfg.Phone.DrainTx(size)
					n.mu.Lock()
					reported := n.urgentReported[toSlot]
					n.urgentReported[toSlot] = true
					n.mu.Unlock()
					if !reported {
						n.report(Report{Type: repUrgent, Phone: n.id, Slot: n.graph.SlotName(toSlot), Observed: target})
					}
					return
				}
			}
		}
		if i == reportAfterAttempts-1 && target != "" {
			n.mu.Lock()
			already := n.unreachable[target]
			n.unreachable[target] = true
			n.mu.Unlock()
			if !already {
				n.report(Report{Type: RepFailure, Phone: n.id, Slot: n.graph.SlotName(toSlot), Observed: target})
			}
		}
	}
}

// sendMarker forwards an in-band marker to every downstream slot.
func (n *Node) sendMarker(m tuple.Marker) {
	p := n.pipe.Load()
	if p == nil {
		return
	}
	for down := range p.downs {
		n.sendCross(p, down, graph.NoOp, graph.NoOp, tuple.MarkerItem(m))
	}
}
