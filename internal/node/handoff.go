package node

// This file moves a slot's state between phones: the handoff of a departing
// or migrating node (§III-E), and key ranges of a keyed group.

import (
	"fmt"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// handoff transfers the node's live state to target and leaves this node
// handed off: pause, snapshot, vacate, then relay stragglers. It serves
// both a departure handoff (§III-E: the departed phone's WiFi leg fails at
// once and the transfer rides cellular) and a planned live migration (the
// phone is still in range, so the blob ships over the region WiFi).
func (n *Node) handoff(target simnet.NodeID) {
	n.jot("migrate.start", 0, string(target))
	if !n.pause("handoff", pauseBound) {
		n.resume("handoff")
		return
	}
	// Ship any coalesced emissions still waiting on the latency bound:
	// after the handoff this node no longer owns their edge sequences.
	n.batch.flushAll()
	blob, err := n.snapshot(TransferVersion)
	if err != nil {
		n.resume("handoff")
		return
	}
	// Atomically: collect queued-but-unprocessed items for the transfer,
	// vacate the slot and start relaying stragglers to the replacement —
	// so nothing arriving during the (slow, cellular) transfer is lost.
	n.mu.Lock()
	slot, p := n.slot, n.pipe.Load()
	if !n.transitionLocked(CmdHandoff, string(target)) {
		n.mu.Unlock()
		n.resume("handoff")
		return
	}
	var pending []streamMsg
	pendingBytes := 0
	add := func(from graph.SlotID, it *queued) {
		pending = append(pending, streamMsg{FromSlot: from, FromOp: it.fromOp, ToSlot: p.slotID,
			ToOp: it.toOp, EdgeSeq: it.edgeSeq, Item: it.item})
		pendingBytes += it.item.WireSize()
	}
	for qi, q := range n.qList {
		for i := q.head; i < len(q.items); i++ {
			add(p.upstreams[qi], &q.items[i])
		}
		// Parked out-of-order arrivals (edge-preserving schemes) travel
		// too: they were already delivered by their upstream, which will
		// never resend them. The receiver re-parks them until their gap
		// fills from relayed stragglers.
		for i := range q.park {
			add(p.upstreams[qi], &q.park[i])
		}
	}
	n.slot = ""
	n.qList = nil
	n.pipe.Store((*pipeline)(nil))
	n.mu.Unlock()
	n.cond.Broadcast()
	size := blob.Size + pendingBytes
	n.relay(target, simnet.ClassTransfer, size, transferMsg{Slot: slot, Blob: blob, Pending: pending})
	n.report(Report{Type: repHandoffDone, Phone: n.id, Slot: slot})
}

// handleTransferIn activates an idle node with a departing peer's state.
// A transfer is honoured only while the region's placement still points at
// the sender: if the controller has meanwhile given up on the migration and
// re-hosted the slot through recovery, a late-arriving blob would activate
// a second primary for a slot that already has one.
func (n *Node) handleTransferIn(from simnet.NodeID, msg transferMsg) {
	slot, known := n.graph.SlotID(msg.Slot)
	if !known {
		return
	}
	if cur, ok := n.resolvePrimary(slot); ok && cur != from && cur != n.id {
		return
	}
	n.mu.Lock()
	if !n.transitionLocked(cmdTransferIn, msg.Slot) {
		n.mu.Unlock()
		return
	}
	n.configureSlot(msg.Slot, n.graph.OpsOnSlot(msg.Slot))
	err := n.installBlobLocked(msg.Blob)
	// Re-queue the items the departing node had not yet processed.
	// installBlobLocked just reset each ordered queue's watermark to the
	// restored inHW, so routing the transferred items through the normal
	// enqueue discipline re-parks any that sit above a sequence gap —
	// relayed stragglers fill the gap instead of being dropped as
	// duplicates below a prematurely bumped watermark.
	for i := range msg.Pending {
		m := &msg.Pending[i]
		if q := n.queueFor(m.FromSlot); q != nil {
			acceptLocked(q, &queued{fromOp: m.FromOp, toOp: m.ToOp, edgeSeq: m.EdgeSeq, item: m.Item}, m.FromSlot)
		}
	}
	buffered := n.takeEarlyLocked()
	n.mu.Unlock()
	if err != nil {
		return
	}
	// Stragglers relayed by the departing node while the transfer was in
	// flight follow the transferred backlog.
	for i := range buffered {
		n.enqueueStream(&buffered[i])
	}
	n.cond.Broadcast()
	n.jot("migrate.in", 0, msg.Slot)
	n.report(Report{Type: RepRestored, Phone: n.id, Slot: msg.Slot, Version: TransferVersion})
}

// TransferVersion tags handoff blobs, which are live state outside the
// checkpoint version sequence.
const TransferVersion = ^uint64(0)

// relay ships a payload to a peer over the region WiFi, detouring over
// cellular when the medium fails (a departed sender's WiFi attempt fails
// instantly, so this covers both in-range and out-of-range senders),
// charging transmit energy exactly when a send succeeds. Used by the
// post-handoff straggler forwarding paths and the handoff transfer itself.
func (n *Node) relay(to simnet.NodeID, class simnet.Class, size int, payload interface{}) bool {
	if err := n.cfg.WiFi.Unicast(n.id, to, class, size, payload); err == nil {
		n.cfg.Phone.DrainTx(size)
		return true
	}
	if n.cfg.Cell != nil {
		if err := n.cfg.Cell.Send(n.id, to, class, size, payload); err == nil {
			n.cfg.Phone.DrainTx(size)
			return true
		}
	}
	return false
}

// The rest of this file is the node half of elastic keyed parallelism:
// exporting and importing contiguous key ranges of an instance's
// KeyedState during a live split or merge, and relaying tuples that arrive
// for a key range this instance no longer owns. The region orchestrates the protocol
// (pause donor → export → ship → import → flip table → resume); the node
// supplies the state surgery and keeps the data plane exactly-once while
// the table flips.

// OperatorByID returns the hosted pipeline's live operator instance, or
// nil (tests and telemetry probes; not for concurrent state mutation).
func (n *Node) OperatorByID(id string) operator.Operator {
	p := n.pipe.Load()
	if p == nil {
		return nil
	}
	for i := range p.ops {
		if p.ops[i].id == id {
			return p.ops[i].op
		}
	}
	return nil
}

// keyedState finds the hosted slot's keyed state store, if its operator
// keeps one. Groups whose operator is stateless split routing-only.
func (n *Node) keyedState() *operator.KeyedState {
	p := n.pipe.Load()
	if p == nil {
		return nil
	}
	for i := range p.ops {
		if ks, ok := p.ops[i].op.(operator.KeyedStater); ok {
			return ks.KeyedState()
		}
	}
	return nil
}

// ExportKeyRange serialises and removes the keyed state in [lo, hi) from
// this instance. The caller must have paused the executor (PauseExec), or
// the export fails: the store is executor-owned and the removal must be
// atomic against tuple processing. A nil return with nil error means the
// operator keeps no keyed state (routing-only split).
func (n *Node) ExportKeyRange(lo, hi string) ([]byte, error) {
	p := n.pipe.Load()
	if p == nil {
		return nil, fmt.Errorf("node %s: key-range export without a hosted slot", n.id)
	}
	if p.keyedGroup == nil {
		return nil, fmt.Errorf("node %s: slot %s hosts no keyed instance", n.id, p.slot)
	}
	if !n.parked() {
		return nil, fmt.Errorf("node %s: key-range export while the executor runs", n.id)
	}
	ks := n.keyedState()
	if ks == nil {
		return nil, nil
	}
	blob := ks.ExportRange(lo, hi)
	ks.DeleteRange(lo, hi)
	// Deletions are invisible to the operator's delta tracker, so a delta
	// checkpoint built after the export would resurrect the moved keys on
	// restore. Force the next checkpoint to be a full base blob.
	n.mu.Lock()
	n.ckptBase = 0
	n.ckptChainLen = 0
	n.mu.Unlock()
	n.jot("keyed.export", 0, fmt.Sprintf("[%s,%s)", lo, hi))
	return blob, nil
}

// ImportKeyRange merges a shipped key range into this instance's keyed
// state. The caller must have paused the executor. Nil data is the
// routing-only case and is a no-op.
func (n *Node) ImportKeyRange(data []byte) error {
	p := n.pipe.Load()
	if p == nil {
		return fmt.Errorf("node %s: key-range import without a hosted slot", n.id)
	}
	if len(data) > 0 {
		ks := n.keyedState()
		if ks == nil {
			return fmt.Errorf("node %s: slot %s has no keyed state to import into", n.id, p.slot)
		}
		if err := ks.ImportRange(data); err != nil {
			return err
		}
	}
	// Imported keys are likewise invisible to the delta baseline: rebase.
	n.mu.Lock()
	n.ckptBase = 0
	n.ckptChainLen = 0
	n.mu.Unlock()
	return nil
}

// KeyRangeMedian returns the median resident key strictly inside [lo, hi)
// — the cut point a split hands the upper half at. The caller must have
// paused the executor. ok is false when fewer than two keys reside in the
// range (nothing to split) or the operator keeps no keyed state.
func (n *Node) KeyRangeMedian(lo, hi string) (string, bool) {
	ks := n.keyedState()
	if ks == nil {
		return "", false
	}
	count := 0
	ks.Range(lo, hi, func(string, []byte) bool { count++; return true })
	if count < 2 {
		return "", false
	}
	var median string
	i := 0
	ks.Range(lo, hi, func(k string, _ []byte) bool {
		if i == count/2 {
			median = k
			return false
		}
		i++
		return true
	})
	// The cut must fall strictly inside the range: a median equal to lo
	// would produce an empty lower half and an invalid duplicate bound.
	if median == lo {
		return "", false
	}
	return median, true
}

// KeyRangeLen counts the resident keys in [lo, hi) — the split planner's
// signal for which of a donor's owned ranges carries the most state (and,
// under per-key load, the most traffic). Zero when the operator keeps no
// keyed state.
func (n *Node) KeyRangeLen(lo, hi string) int {
	ks := n.keyedState()
	if ks == nil {
		return 0
	}
	count := 0
	ks.Range(lo, hi, func(string, []byte) bool { count++; return true })
	return count
}

// KeyRangeGen reports how many key-range imports this node has completed;
// the region polls it after shipping a range to learn the import landed.
func (n *Node) KeyRangeGen() uint64 { return n.keyRangeGen.Load() }

// SendKeyRange ships an exported key range to the recipient instance's
// phone over the region WiFi (cellular fallback), charging the transfer
// like any relay. Returns false when both media fail.
func (n *Node) SendKeyRange(to simnet.NodeID, m KeyRangeMsg) bool {
	size := len(m.State)
	if size == 0 {
		size = 32 // routing-only control message
	}
	return n.relay(to, simnet.ClassTransfer, size, m)
}

// handleKeyRangeIn lands a shipped key range on the recipient: import
// under its own executor pause hold (the state store is executor-owned;
// holds nest, so a recipient the region has paused stays paused), then
// bump the import generation the region is polling.
func (n *Node) handleKeyRangeIn(m KeyRangeMsg) {
	ok := n.pause("keyed.import", pauseBound) && n.ImportKeyRange(m.State) == nil
	n.resume("keyed.import")
	if !ok {
		return
	}
	n.keyRangeGen.Add(1)
	n.jot("keyed.import", 0, fmt.Sprintf("%s [%s,%s)", m.Logical, m.Lo, m.Hi))
}

// rerouteToOwner relays a tuple that reached this keyed instance for a
// key range it no longer owns (queued before a table flip, or a straggler
// delivery) to the current owner's slot primary. The tuple arrives on the
// recipient's reroute pseudo-queue, outside edge sequencing; duplicate
// suppression for the rare double-delivery rests on sink-side dedup.
func (n *Node) rerouteToOwner(p *pipeline, owner int, t *tuple.Tuple) {
	if owner < 0 || owner >= len(p.keyedOps) {
		return
	}
	inst := p.keyedOps[owner]
	slot := n.graph.OpSlot(inst)
	target, ok := n.resolvePrimary(slot)
	if !ok {
		return
	}
	m := streamMsg{FromSlot: graph.RerouteSlot, ToSlot: slot, FromOp: graph.NoOp, ToOp: inst, Item: tuple.DataItem(t)}
	if n.curTrace.ID != 0 {
		m.Trace = n.curTrace
	}
	n.relay(target, simnet.ClassData, t.Size, m)
}
