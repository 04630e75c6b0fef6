package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/checkpoint"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
)

// dispatchLoop drains the endpoint inbox. Cheap data-plane work (stream
// enqueue, checkpoint block assembly) happens inline; blocking control work
// is forwarded to the control goroutine.
func (n *Node) dispatchLoop() {
	defer n.wg.Done()
	inbox := n.cfg.Endpoint.Inbox()
	for {
		select {
		case m := <-inbox:
			n.dispatch(m)
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) dispatch(m simnet.Message) {
	// Every arrival costs receive energy (WiFi and cellular alike): a
	// phone that mostly listens — checkpoint broadcasts, preserved source
	// replicas, replicated tuples — still drains real battery, and the
	// placement planner's risk telemetry depends on that drain being modelled.
	if m.Size > 0 && !n.cfg.Phone.DrainRx(m.Size) {
		n.Fail()
		return
	}
	switch m.Class {
	case simnet.ClassData, simnet.ClassReplication, simnet.ClassRecovery:
		switch p := m.Payload.(type) {
		case streamMsg:
			n.enqueueStream(&p)
		case *batchMsg:
			n.enqueueStreamBatch(p)
		case InterRegionMsg:
			if n.cfg.OnIngest != nil {
				n.cfg.OnIngest(p.SrcOp, p.Value, p.Size, p.Kind)
			}
		default:
			// Recovery-control requests (blob fetches, resend requests)
			// share the recovery class with resent data; route them to
			// the control goroutine.
			select {
			case n.ctrlCh() <- m:
			case <-n.stopCh:
			}
		}
	case simnet.ClassCode:
		// Operator code shipping is modelled by its transfer cost only.
	case simnet.ClassPreserve:
		if pm, ok := m.Payload.(*preserveMsg); ok {
			n.cfg.Store.AppendSourceReplica(pm.Version, pm.Source, pm.Ts)
		}
	case simnet.ClassCheckpoint:
		switch p := m.Payload.(type) {
		case broadcast.FillMsg:
			n.recv.OnFill(p)
		case distBlobMsg:
			n.cfg.Store.PutBlob(p.Blob)
		default:
			// UDP blocks, alone or a burst of one airtime reservation.
			n.rxGrams = simnet.Datagrams(n.rxGrams[:0], m)
			n.recv.OnBlocks(n.rxGrams)
		}
	default:
		select {
		case n.ctrlCh() <- m:
		case <-n.stopCh:
		}
	}
}

// ctrlCh lazily builds the control channel (kept out of New for zero-value
// friendliness of tests constructing partial nodes).
func (n *Node) ctrlCh() chan simnet.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ctrl == nil {
		n.ctrl = make(chan simnet.Message, simnet.DefaultInbox) // low-rate: depth peaks at ~5
	}
	return n.ctrl
}

// controlLoop serves bitmap queries, controller commands and peer recovery
// requests.
func (n *Node) controlLoop() {
	defer n.wg.Done()
	ch := n.ctrlCh()
	for {
		select {
		case m := <-ch:
			n.handleControl(m)
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) handleControl(m simnet.Message) {
	switch p := m.Payload.(type) {
	case broadcast.QueryMsg:
		n.cfg.WiFi.Respond(m, n.id, simnet.ClassBitmap, broadcast.BitmapWireBytes(p.Total), n.recv.Answer(p))
	case Command:
		n.handleCommand(m, p)
	case fetchBlobReq:
		n.handleFetchBlob(m, p)
	case resendReq:
		n.injectCmd(execCmd{resendTo: p.Downstream, after: p.After})
	case truncateMsg:
		n.cfg.Store.TruncateEdge(p.Downstream, p.Upto)
	case transferMsg:
		n.handleTransferIn(m.From, p)
	case KeyRangeMsg:
		n.handleKeyRangeIn(p)
	default:
	}
}

func (n *Node) handleCommand(m simnet.Message, c Command) {
	switch c.Op {
	case CmdToken:
		n.InjectToken(c.Version)
	case CmdSnapshot:
		n.injectCmd(execCmd{snapshot: c.Version})
	case CmdCommit:
		n.handleCommit(c.Version)
	case CmdPause:
		n.PauseExec()
		n.respondOK(m)
	case CmdResume:
		n.ResumeExec()
		n.respondOK(m)
	case CmdRestore:
		err := n.restoreTo(c.Version)
		n.mu.Lock()
		slot := n.slot
		n.mu.Unlock()
		r := Report{Type: RepRestored, Phone: n.id, Slot: slot, Version: c.Version}
		if err != nil {
			r.Err = err.Error()
		}
		n.report(r)
	case CmdReplay:
		n.replayFrom(c.Version, c.Epoch)
	case cmdPromote:
		n.Promote()
	case CmdHandoff, CmdMigrate:
		n.handoff(c.Target)
	case CmdFetchRestore:
		n.fetchRestore(c)
	case CmdPing:
		// A slot-carrying ping is only answered by the slot's actual
		// host: a phone that vacated the slot (lost migration, stale
		// placement) stays silent, which is what lets the controller
		// detect a stranded slot and re-host it.
		if c.Slot == "" || c.Slot == n.fetchSlot() {
			n.respondOK(m)
		}
	default:
	}
}

func (n *Node) respondOK(m simnet.Message) {
	if m.Reply == nil {
		return
	}
	if n.cfg.Cell != nil {
		n.cfg.Cell.Respond(m, n.id, simnet.ClassControl, 16, "ok")
	}
}

// handleCommit applies a committed checkpoint version: garbage-collect, and
// under input preservation tell upstream slots how far they can truncate.
func (n *Node) handleCommit(v uint64) {
	n.jot("ckpt.commit", v, "")
	n.cfg.Store.Commit(v)
	n.recv.DropBefore(v)
	if !n.cfg.Scheme.PreservesAtEdges() {
		return
	}
	n.mu.Lock()
	hw := n.hwAt[v]
	for ver := range n.hwAt {
		if ver < v {
			delete(n.hwAt, ver)
		}
	}
	slot := n.slot
	n.mu.Unlock()
	if hw == nil {
		return
	}
	n.toUpstreams(slot, func(up string, target simnet.NodeID) {
		n.cfg.WiFi.Unicast(n.id, target, simnet.ClassControl, 32, truncateMsg{Downstream: slot, Upto: hw[up]})
	})
}

// toUpstreams calls send with the name and current primary of every slot
// feeding slot (recovery and commit control, off the data path).
func (n *Node) toUpstreams(slot string, send func(up string, target simnet.NodeID)) {
	for _, up := range n.graph.SlotUpstreams(slot) {
		id, _ := n.graph.SlotID(up)
		if target, ok := n.resolvePrimary(id); ok {
			send(up, target)
		}
	}
}

// handleFetchBlob serves a peer's recovery request for a checkpoint blob.
// The served blob is the materialised full state — a requester must not
// depend on holding this store's chain links — and the response is charged
// at that full size.
func (n *Node) handleFetchBlob(m simnet.Message, req fetchBlobReq) {
	blob, err := n.cfg.Store.MaterializeBlob(req.Version, req.Slot)
	if m.Reply == nil {
		return
	}
	if err != nil {
		n.cfg.WiFi.Respond(m, n.id, simnet.ClassRecovery, 16, nil)
		return
	}
	n.cfg.WiFi.Respond(m, n.id, simnet.ClassRecovery, blob.Size, blob)
}

// persistLoop persists checkpoint blobs asynchronously: MobiStreams
// disseminates by broadcast to every peer; dist-n unicasts to its assigned
// peers. The executor keeps processing while this runs (§III-B).
func (n *Node) persistLoop() {
	defer n.wg.Done()
	for {
		select {
		case blob := <-n.persistCh:
			if !n.cfg.Checkpoint.FullOnly {
				// Incremental-async: the flash write rides this goroutine,
				// outside the executor's stop-the-world window. (FullOnly
				// already charged it inside the pause.)
				n.clk.Sleep(n.cfg.Phone.FlashWriteTime(blob.Size))
			}
			if n.cfg.Scheme.Kind == ft.MS {
				peers := n.livePeers()
				st, err := broadcast.DisseminateUntil(n.stopCh, n.cfg.WiFi, n.clk, n.id, peers, blob, n.bcfg)
				n.cfg.Phone.DrainTx(int(st.UDPBytes + st.TCPBytes))
				if err != nil {
					return // cut short by stop: nothing to report as persisted
				}
				n.report(Report{Type: RepPersisted, Phone: n.id, Slot: blob.Slot, Version: blob.Version, Replicas: len(st.Complete)})
			}
		case <-n.stopCh:
			return
		}
	}
}

func (n *Node) livePeers() []simnet.NodeID {
	if n.cfg.Peers == nil {
		return nil
	}
	return n.cfg.Peers()
}

// PauseExec stops the executor at the next tuple boundary and waits (in
// wall time, bounded) until it parks.
func (n *Node) PauseExec() {
	n.mu.Lock()
	n.paused = true
	n.mu.Unlock()
	n.cond.Broadcast()
	deadline := time.Now().Add(5 * time.Second)
	n.mu.Lock()
	for !n.execParked && n.running && time.Now().Before(deadline) {
		n.mu.Unlock()
		time.Sleep(200 * time.Microsecond)
		n.mu.Lock()
	}
	n.mu.Unlock()
}

// ResumeExec restarts the executor and reopens the stream path after a
// controller-driven restore.
func (n *Node) ResumeExec() {
	n.mu.Lock()
	n.paused = false
	n.dropStream = false
	n.mu.Unlock()
	n.cond.Broadcast()
}

// Promote turns a rep-2 standby into the primary: it starts emitting.
func (n *Node) Promote() {
	if n.role.CompareAndSwap(int32(RoleStandby), int32(RolePrimary)) {
		n.jot("node.promote", 0, "")
	}
}

// restoreTo reloads the node's operators from the local copy of version v
// (v = 0 resets to initial state). The executor must be paused. This is
// the parallel, local-read restoration that makes MobiStreams recovery
// scale (§III-D). A delta checkpoint restores by materialising its chain
// (base + patches); a torn local chain falls back to fetching the
// materialised state from a live peer.
func (n *Node) restoreTo(v uint64) error {
	n.mu.Lock()
	slot := n.slot
	n.mu.Unlock()
	if slot == "" {
		return fmt.Errorf("node %s: restore on idle node", n.id)
	}
	var blob *checkpoint.Blob
	if v > 0 {
		blob = n.loadRestoreBlob(v, slot)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if v > 0 && blob == nil {
		// Still close the stream door: the region-wide restore proceeds on
		// the peers, and stale pre-failure traffic must not leak in.
		n.dropStream = true
		return fmt.Errorf("node %s: no usable chain for %s v%d", n.id, slot, v)
	}
	err := n.installBlobLocked(blob)
	// Until the controller resumes the region, every peer is paused: any
	// stream arrival in this window is stale pre-failure traffic from a
	// sender that has not yet restored, and would poison the reset dedup
	// state against the upcoming replay. Drop it at the door.
	n.dropStream = true
	if err == nil {
		n.jot("node.restore", v, slot)
	}
	return err
}

// installBlobLocked rebuilds operators and runtime state from a blob (nil
// means initial state), compiling a fresh pipeline and swapping it in
// atomically. Caller holds n.mu.
func (n *Node) installBlobLocked(blob *checkpoint.Blob) error {
	// Output emitted before the rewind is invalid after it: the restored
	// outSeq re-emits those edge sequences, so pending batches are
	// discarded and in-flight delivery retries observe the generation
	// bump and abort rather than landing stale.
	atomic.AddUint64(&n.sendGen, 1)
	n.batch.discardAll()
	fresh := make([]operator.Operator, 0, len(n.opIDs))
	for _, id := range n.opIDs {
		fresh = append(fresh, n.cfg.Registry.New(id))
	}
	rt := runtimeState{OutSeq: map[string]uint64{}, InHW: map[string]uint64{}}
	if blob != nil {
		if err := checkpoint.RestoreBlob(blob, fresh); err != nil {
			return err
		}
		if len(blob.Runtime) > 0 {
			wrt, err := wire.DecodeRuntime(blob.Runtime)
			if err != nil {
				return fmt.Errorf("node %s: decode runtime: %w", n.id, err)
			}
			rt = runtimeState{OutSeq: wrt.OutSeq, InHW: wrt.InHW, LogVersion: wrt.LogVersion}
		}
	}
	if rt.OutSeq == nil {
		rt.OutSeq = map[string]uint64{}
	}
	if rt.InHW == nil {
		rt.InHW = map[string]uint64{}
	}
	p := n.compilePipeline(n.slot, n.opIDs, fresh)
	p.setCounters(rt.OutSeq, rt.InHW)
	n.pipe.Store(p)
	n.logVersion.Store(rt.LogVersion)
	for qi, q := range n.qList {
		up := p.upstreams[qi]
		if up == graph.ExternalSlot {
			// Fresh external input queued during the outage was never
			// processed (hence never preserved): keep it, so it runs
			// after the replayed log. Stale in-band markers (tokens of
			// the aborted checkpoint) are dropped.
			var kept []queued
			for _, it := range q.items[q.head:] {
				if it.item.Tuple != nil {
					kept = append(kept, it)
				}
			}
			q.items = kept
			q.head = 0
			q.stalled = false
			continue
		}
		q.reset()
		q.lastEnq = rt.InHW[n.graph.SlotName(up)]
	}
	n.cmds = nil
	// The freshly built operators carry no delta baselines, so the next
	// checkpoint must be a full base blob.
	n.ckptBase = 0
	n.ckptChainLen = 0
	n.align = checkpoint.NewAlignment(n.alignUpstreams)
	n.replaySeen = make(map[uint64]map[graph.SlotID]bool)
	n.suppress.Store(n.isSink)
	n.unreachable = make(map[simnet.NodeID]bool)
	n.urgentReported = make(map[graph.SlotID]bool)
	return nil
}

// replayFrom prepends the preserved input since version v to the external
// queue (catch-up, §III-D), terminated by a replay-end marker for epoch.
func (n *Node) replayFrom(v uint64, epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.queueFor(graph.ExternalSlot)
	if q == nil {
		return
	}
	var replay []queued
	for _, src := range n.sourceOps {
		for _, t := range n.cfg.Store.SourceLogsFrom(v, n.graph.OpName(src)) {
			c := n.ingest.Clone(t)
			c.Replay = true
			replay = append(replay, queued{fromOp: graph.NoOp, toOp: src, item: tuple.DataItem(c)})
		}
	}
	replay = append(replay, queued{fromOp: graph.NoOp, toOp: graph.NoOp,
		item: tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerReplayEnd, Version: epoch})})
	pending := q.items[q.head:]
	q.items = append(replay, pending...)
	q.head = 0
	n.cond.Signal()
}

// fetchRestore is the dist-n/local recovery path: fetch the blob for this
// node's slot from a peer (or local storage), restore, then ask every
// upstream to resend retained output past the restored watermarks.
func (n *Node) fetchRestore(c Command) {
	n.PauseExec()
	var blob *checkpoint.Blob
	if c.Target == n.id {
		if b, err := n.cfg.Store.MaterializeBlob(c.Version, n.fetchSlot()); err == nil {
			blob = b
		}
	} else if c.Version > 0 {
		reply := make(chan simnet.Message, 1)
		if n.cfg.WiFi.Request(n.id, c.Target, simnet.ClassRecovery, 32, fetchBlobReq{Slot: n.fetchSlot(), Version: c.Version}, reply) == nil {
			timeout := n.clk.NewTimer(60 * time.Second)
			select {
			case msg := <-reply:
				timeout.Stop()
				if b, ok := msg.Payload.(*checkpoint.Blob); ok {
					blob = b
				}
			case <-timeout.C():
			}
		}
	}
	if blob == nil && c.Version > 0 {
		n.report(Report{Type: RepRestored, Phone: n.id, Slot: n.fetchSlot(), Version: c.Version, Err: "blob unavailable"})
		n.ResumeExec()
		return
	}
	n.mu.Lock()
	err := n.installBlobLocked(blob)
	// Classic schemes have no catch-up suppression window; duplicates are
	// handled by edge-sequence dedup instead.
	n.suppress.Store(false)
	var hw map[string]uint64
	if p := n.pipe.Load(); p != nil {
		hw = p.inHWMap()
	}
	slot := n.slot
	n.mu.Unlock()
	r := Report{Type: RepRestored, Phone: n.id, Slot: slot, Version: c.Version}
	if err != nil {
		r.Err = err.Error()
	}
	n.report(r)
	n.toUpstreams(slot, func(up string, target simnet.NodeID) {
		n.cfg.WiFi.Unicast(n.id, target, simnet.ClassRecovery, 32, resendReq{Downstream: slot, After: hw[up]})
	})
	n.ResumeExec()
}

// fetchSlot reads the node's slot under lock (for recovery paths running
// off the executor goroutine).
func (n *Node) fetchSlot() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.slot
}

// handoff transfers the node's live state to target and demotes this node
// to idle: pause, snapshot, vacate, then relay stragglers. It serves both a
// departure handoff (§III-E: the departed phone's WiFi leg fails at once
// and the transfer rides cellular) and a planned live migration (the phone
// is still in range, so the blob ships over the region WiFi).
func (n *Node) handoff(target simnet.NodeID) {
	n.jot("migrate.start", 0, string(target))
	n.PauseExec()
	// Ship any coalesced emissions still waiting on the latency bound:
	// after the handoff this node no longer owns their edge sequences.
	n.batch.flushAll()
	n.mu.Lock()
	slot := n.slot
	n.mu.Unlock()
	if slot == "" {
		n.ResumeExec()
		return
	}
	blob, err := n.snapshot(TransferVersion)
	if err != nil {
		n.ResumeExec()
		return
	}
	// Atomically: collect queued-but-unprocessed items for the transfer,
	// vacate the slot and start relaying stragglers to the replacement —
	// so nothing arriving during the (slow, cellular) transfer is lost.
	n.mu.Lock()
	var pending []streamMsg
	pendingBytes := 0
	p := n.pipe.Load()
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
	n.role.Store(int32(RoleIdle))
	n.paused = false
	n.forwardTo = target
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
	if n.slot != "" {
		n.mu.Unlock()
		return
	}
	n.configureSlot(msg.Slot, n.opIDsForSlot(msg.Slot))
	n.role.Store(int32(RolePrimary))
	err := n.installBlobLocked(msg.Blob)
	// A handed-off node resumes mid-stream; it does not suppress.
	n.suppress.Store(false)
	// Re-queue the items the departing node had not yet processed.
	// installBlobLocked just reset each ordered queue's watermark to the
	// restored inHW, so routing the transferred items through the normal
	// enqueue discipline re-parks any that sit above a sequence gap —
	// relayed stragglers fill the gap instead of being dropped as
	// duplicates below a prematurely bumped watermark. External-slot
	// items bypass it (their sequence space is per-source, not per-edge).
	for i := range msg.Pending {
		m := &msg.Pending[i]
		q := n.queueFor(m.FromSlot)
		if q == nil {
			continue
		}
		it := queued{fromOp: m.FromOp, toOp: m.ToOp, edgeSeq: m.EdgeSeq, item: m.Item}
		if m.FromSlot == graph.ExternalSlot {
			it.edgeSeq = 0
			q.push(&it)
			continue
		}
		q.enqueue(&it)
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

// Activate configures an idle node to host a slot (recovery replacement).
// The caller (controller) then issues CmdRestore/CmdReplay as needed.
func (n *Node) Activate(slot string) {
	n.mu.Lock()
	n.configureSlot(slot, n.opIDsForSlot(slot))
	n.role.Store(int32(RolePrimary))
	buffered := n.takeEarlyLocked()
	n.mu.Unlock()
	for i := range buffered {
		n.enqueueStream(&buffered[i])
	}
	n.cond.Broadcast()
}

func (n *Node) opIDsForSlot(slot string) []string {
	return n.graph.OpsOnSlot(slot)
}

// TransferVersion tags handoff blobs, which are live state outside the
// checkpoint version sequence.
const TransferVersion = ^uint64(0)
