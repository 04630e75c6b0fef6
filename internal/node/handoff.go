package node

// This file moves a slot's state between phones: the handoff of a departing
// or migrating node (§III-E), and the key ranges a keyed group's split or
// merge moves between its instances.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

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
// a second primary for a slot that already has one. A transfer the node
// refuses, or whose state does not install, leaves the node as it was and
// reports why, so the controller fails the step at once.
func (n *Node) handleTransferIn(from simnet.NodeID, msg transferMsg) {
	slot, known := n.graph.SlotID(msg.Slot)
	if !known {
		return
	}
	if cur, ok := n.primary(slot); ok && cur != from && cur != n.id {
		return
	}
	failed := Report{Type: RepRestored, Phone: n.id, Slot: msg.Slot, Version: TransferVersion}
	opIDs := n.graph.OpsOnSlot(msg.Slot)
	fresh, rt, err := n.decodeBlob(opIDs, msg.Blob)
	if err != nil {
		failed.Err = fmt.Sprintf("node %s: transfer-in of %s: %v", n.id, msg.Slot, err)
		n.report(failed)
		return
	}
	n.mu.Lock()
	if state := n.life.Load(); !n.transitionLocked(cmdTransferIn, msg.Slot) {
		n.mu.Unlock()
		failed.Err = fmt.Sprintf("node %s: transfer-in of %s in state %s", n.id, msg.Slot, state)
		n.report(failed)
		return
	}
	n.configureSlot(msg.Slot, opIDs)
	n.rewindOutputLocked()
	n.installLocked(fresh, rt)
	// Re-queue the items the departing node had not yet processed.
	// installLocked just reset each ordered queue's watermark to the
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

// The rest of this file is the node half of elastic keyed parallelism. A
// split or merge runs on the donor instance's phone as one controller
// command, CmdSplit or CmdMerge, which names the recipient instance's slot
// and host. The donor pauses, picks the ranges to move from its own
// state, ships them to the recipient in one request and, once the
// recipient has imported them, installs the successor partition table
// before it resumes: no tuple executes against a range its node no longer
// owns, and tuples queued before the flip reroute to the new owner.

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

// keyRangeWait bounds, in simulated time, how long a donor waits for the
// recipient's answer to a key-range request.
const keyRangeWait = 60 * time.Second

// moveKeys runs a split (CmdSplit) or merge (CmdMerge) of the hosted keyed
// instance with the instance on slot c.Slot, hosted by c.Target, and
// returns why it failed. A split tries the owned ranges from most to
// fewest resident keys (the range carrying the most state is the best
// guess at where the load lives) and cuts the first holding two keys or
// more at its median resident key, the upper half moving; a merge moves
// every owned range and leaves the donor dormant. The moved state leaves
// the donor only once the recipient has imported it, so a failure leaves
// ranges, state and table as they were.
func (n *Node) moveKeys(c Command) error {
	p := n.pipe.Load()
	if p == nil || p.keyedGroup == nil {
		return fmt.Errorf("node %s: %s without a keyed instance", n.id, c.Op)
	}
	grp, from, to := p.keyedGroup, p.keyedInst, -1
	if slot, ok := n.graph.SlotID(c.Slot); ok {
		to = slices.IndexFunc(p.keyedOps, func(op graph.OpID) bool { return n.graph.OpSlot(op) == slot })
	}
	if to < 0 || to == from {
		return fmt.Errorf("node %s: %s of %s instance %d into slot %q", n.id, c.Op, grp.Logical(), from, c.Slot)
	}
	why := "keyed." + c.Op.String()
	defer n.resume(why)
	if !n.pause(why, pauseBound) {
		return fmt.Errorf("node %s: %s: executor did not park", n.id, c.Op)
	}
	ks, tbl := n.keyedState(), grp.Table()
	next, moved, err := tbl.MergeInto(from, to) // a merge moves every owned range
	if c.Op == CmdSplit {
		next, err = nil, fmt.Errorf("instance %d has no splittable range", from)
		if at, ok := medianCut(ks, tbl.OwnedRanges(from)); ok {
			var rg [2]string
			next, rg, err = tbl.Split(at, to)
			moved = [][2]string{rg}
		}
	}
	if err != nil {
		return fmt.Errorf("node %s: %s %s: %w", n.id, c.Op, grp.Logical(), err)
	}
	msg := KeyRangeMsg{Logical: grp.Logical(), Ranges: moved}
	if ks != nil {
		msg.State = ks.ExportRange(moved...)
	}
	if err := n.shipKeys(c.Target, msg); err != nil {
		return err
	}
	if ks != nil {
		for _, rg := range moved {
			ks.DeleteRange(rg[0], rg[1])
		}
		n.rebaseCheckpoint()
	}
	grp.Install(next)
	n.jot(why, next.Epoch(), fmt.Sprintf("%s %s -> %d", grp.Logical(), rangesString(moved), to))
	return nil
}

// medianCut returns the median resident key of the first range, from most
// to fewest resident keys, that holds two keys or more: a cut strictly
// inside it. ok is false when no range does or there is no keyed state.
func medianCut(ks *operator.KeyedState, ranges [][2]string) (string, bool) {
	if ks == nil {
		return "", false
	}
	keys := make([][]string, len(ranges))
	for i, rg := range ranges {
		ks.Range(rg[0], rg[1], func(k string, _ []byte) bool { keys[i] = append(keys[i], k); return true })
	}
	slices.SortStableFunc(keys, func(a, b []string) int { return len(b) - len(a) })
	if len(keys) == 0 || len(keys[0]) < 2 {
		return "", false
	}
	return keys[0][len(keys[0])/2], true
}

// shipKeys requests the recipient's import of msg over the region WiFi and
// waits for its answer.
func (n *Node) shipKeys(to simnet.NodeID, msg KeyRangeMsg) error {
	size := max(len(msg.State), 32) // 32: a routing-only control message
	what := fmt.Sprintf("node %s: key-range ship of %s %s to %s", n.id, msg.Logical, rangesString(msg.Ranges), to)
	reply := make(chan simnet.Message, 1)
	if err := n.cfg.WiFi.Request(n.id, to, simnet.ClassTransfer, size, msg, reply); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	n.cfg.Phone.DrainTx(size)
	t := n.clk.NewTimer(keyRangeWait)
	defer t.Stop()
	select {
	case m := <-reply:
		if a, _ := m.Payload.(Answer); a.Err != "" {
			return errors.New(a.Err)
		}
		return nil
	case <-t.C():
		return fmt.Errorf("%s: no answer in %v", what, keyRangeWait)
	case <-n.stopCh:
		return fmt.Errorf("%s: node stopped", what)
	}
}

// handleKeyRangeIn imports a shipped message on the recipient and answers
// the donor with why it did not.
func (n *Node) handleKeyRangeIn(m simnet.Message, msg KeyRangeMsg) {
	rng := msg.Logical + " " + rangesString(msg.Ranges)
	var a Answer
	if err := n.importKeys(msg.State); err != nil {
		a.Err = fmt.Sprintf("node %s: key-range import of %s: %v", n.id, rng, err)
	} else {
		n.jot("keyed.import", 0, rng)
	}
	n.cfg.WiFi.Respond(m, n.id, simnet.ClassTransfer, answerBytes+len(a.Err), a)
}

// importKeys merges exported keyed state into the hosted instance's store
// under the node's own executor pause hold (the store is executor-owned;
// holds nest). ImportRange decodes the whole message before it merges any
// of it. Nil data is the routing-only case.
func (n *Node) importKeys(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	ks := n.keyedState()
	if ks == nil {
		return errors.New("no keyed state to import into")
	}
	defer n.resume("keyed.import")
	if !n.pause("keyed.import", pauseBound) {
		return errors.New("executor did not park")
	}
	if err := ks.ImportRange(data); err != nil {
		return err
	}
	n.rebaseCheckpoint()
	return nil
}

// rebaseCheckpoint makes the next checkpoint a full base blob: keys moved
// in or out of the store are invisible to the operator's delta tracker, so
// a delta built on the old base would lose or resurrect them on restore.
func (n *Node) rebaseCheckpoint() {
	n.mu.Lock()
	n.ckptBase, n.ckptChainLen = 0, 0
	n.mu.Unlock()
}

// rangesString renders key ranges as "[lo,hi) [lo,hi)".
func rangesString(ranges [][2]string) string {
	parts := make([]string, len(ranges))
	for i, rg := range ranges {
		parts[i] = "[" + rg[0] + "," + rg[1] + ")"
	}
	return strings.Join(parts, " ")
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
	target, ok := n.primary(slot)
	if !ok {
		return
	}
	m := streamMsg{FromSlot: graph.RerouteSlot, ToSlot: slot, FromOp: graph.NoOp, ToOp: inst, Item: tuple.DataItem(t)}
	if n.curTrace.ID != 0 {
		m.Trace = n.curTrace
	}
	n.relay(target, simnet.ClassData, t.Size, m)
}
