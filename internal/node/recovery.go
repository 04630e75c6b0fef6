package node

import (
	"fmt"
	"sync/atomic"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
)

// restore reloads the node's operators from the local copy of version v
// (v = 0 resets to initial state) and returns its RepRestored report, with
// Err when it could not. This is the parallel, local-read restoration that
// makes MobiStreams recovery scale (§III-D). The executor must be parked by
// a pause, or nothing is installed. The restore closes the stream door
// (admit) whether or not the install succeeds: the region-wide restore
// proceeds on the peers either way. A delta checkpoint restores by
// materialising its chain (base + patches); a torn local chain falls back
// to fetching the materialised state from a live peer.
func (n *Node) restore(v uint64) Report {
	n.mu.Lock()
	r := Report{Type: RepRestored, Phone: n.id, Slot: n.slot, Version: v}
	switch from := n.life.Load(); {
	case !n.execParked:
		r.Err = fmt.Sprintf("node %s: restore while the executor runs", n.id)
	case !n.transitionLocked(CmdRestore, "plan"):
		r.Err = fmt.Sprintf("node %s: restore in state %s", n.id, from)
	}
	n.mu.Unlock()
	if r.Err != "" {
		return r
	}
	var blob *checkpoint.Blob
	if v > 0 {
		if blob = n.loadRestoreBlob(v, r.Slot); blob == nil {
			r.Err = fmt.Sprintf("node %s: no usable chain for %s v%d", n.id, r.Slot, v)
			return r
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.installBlobLocked(blob); err != nil {
		r.Err = err.Error()
		return r
	}
	n.jot("node.restore", v, r.Slot)
	return r
}

// installBlobLocked rebuilds operators and runtime state from a blob (nil
// means initial state), compiling a fresh pipeline and swapping it in
// atomically. Caller holds n.mu.
func (n *Node) installBlobLocked(blob *checkpoint.Blob) error {
	n.rewindOutputLocked()
	fresh, rt, err := n.decodeBlob(n.opIDs, blob)
	if err != nil {
		return err
	}
	n.installLocked(fresh, rt)
	return nil
}

// rewindOutputLocked invalidates output emitted before an install: the
// restored outSeq re-emits those edge sequences, so pending batches are
// discarded, and parked deliveries wake, observe the generation bump and
// abort rather than landing stale. Caller holds n.mu.
func (n *Node) rewindOutputLocked() {
	atomic.AddUint64(&n.sendGen, 1)
	n.moveRoutesLocked(n.routes.Load().tbl)
	n.batch.discardAll()
}

// decodeBlob builds fresh operators opIDs and loads a blob (nil means
// initial state) into them and into the executor bookkeeping it carries.
// It changes nothing on the node, so a blob that does not decode leaves
// the node as it was.
func (n *Node) decodeBlob(opIDs []string, blob *checkpoint.Blob) ([]operator.Operator, wire.Runtime, error) {
	fresh := make([]operator.Operator, 0, len(opIDs))
	for _, id := range opIDs {
		fresh = append(fresh, n.cfg.Registry.New(id))
	}
	// The executor bookkeeping carried inside the checkpoint, so the node
	// resumes with consistent edge sequences (zero without a blob).
	var rt wire.Runtime
	if blob != nil {
		if err := checkpoint.RestoreBlob(blob, fresh); err != nil {
			return nil, rt, err
		}
		if len(blob.Runtime) > 0 {
			var err error
			if rt, err = wire.DecodeRuntime(blob.Runtime); err != nil {
				return nil, rt, fmt.Errorf("node %s: decode runtime: %w", n.id, err)
			}
		}
	}
	return fresh, rt, nil
}

// installLocked swaps in decoded operators and runtime state (see
// decodeBlob), after rewindOutputLocked. Caller holds n.mu.
func (n *Node) installLocked(fresh []operator.Operator, rt wire.Runtime) {
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
	n.unreachable = make(map[simnet.NodeID]bool)
	n.urgentReported = make(map[graph.SlotID]bool)
}

// replayFrom prepends the preserved input since version v to the external
// queue (catch-up, §III-D), terminated by a replay-end marker for epoch.
func (n *Node) replayFrom(v uint64, epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.queueFor(graph.ExternalSlot)
	if q == nil || !n.transitionLocked(CmdReplay, "plan") {
		return
	}
	var replay []queued
	for _, src := range n.pipe.Load().sourceOps {
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
	defer n.resume("fetch-restore")
	r := Report{Type: RepRestored, Phone: n.id, Slot: n.Slot(), Version: c.Version}
	if !n.pause("fetch-restore", pauseBound) {
		r.Err = "executor did not park"
		n.report(r)
		return
	}
	var blob *checkpoint.Blob
	if c.Target == n.id {
		if b, err := n.cfg.Store.MaterializeBlob(c.Version, n.Slot()); err == nil {
			blob = b
		}
	} else if c.Version > 0 {
		reply := make(chan simnet.Message, 1)
		if n.cfg.WiFi.Request(n.id, c.Target, simnet.ClassRecovery, 32, fetchBlobReq{Slot: n.Slot(), Version: c.Version}, reply) == nil {
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
		r.Err = "blob unavailable"
		n.report(r)
		return
	}
	n.mu.Lock()
	// Classic schemes have no catch-up window: the restored node emits at
	// once, and edge-sequence dedup handles duplicates.
	err := fmt.Errorf("node %s: fetch-restore in state %s", n.id, n.life.Load())
	if n.transitionLocked(CmdFetchRestore, "plan") {
		err = n.installBlobLocked(blob)
	}
	var hw map[string]uint64
	if p := n.pipe.Load(); p != nil {
		hw = p.inHWMap()
	}
	n.mu.Unlock()
	if err != nil {
		r.Err = err.Error()
	}
	n.report(r)
	n.toUpstreams(r.Slot, func(up string, target simnet.NodeID) {
		n.cfg.WiFi.Unicast(n.id, target, simnet.ClassRecovery, 32, resendReq{Downstream: r.Slot, After: hw[up]})
	})
}

// onReplayEnd tracks catch-up termination markers. Replay-end markers are
// aligned exactly like tokens — a channel that has delivered its marker is
// stalled — so no fresh (post-recovery) tuple can overtake the marker
// through a reconverging path and be wrongly discarded by a catching-up
// sink. When every upstream has delivered one, a sink resumes publishing
// and reports; an interior node forwards the marker downstream.
func (n *Node) onReplayEnd(p *pipeline, qi int, epoch uint64) {
	n.mu.Lock()
	set, ok := n.replaySeen[epoch]
	if !ok {
		set = make(map[graph.SlotID]bool)
		n.replaySeen[epoch] = set
	}
	set[p.upstreams[qi]] = true
	complete := len(set) == len(n.alignUpstreams)
	if !complete {
		if qi < len(n.qList) {
			n.qList[qi].stalled = true
		}
		n.mu.Unlock()
		return
	}
	delete(n.replaySeen, epoch)
	for _, q := range n.qList {
		q.stalled = false
	}
	if p.isSink {
		n.transitionLocked(cmdReplayEnd, "markers")
	}
	slot := n.slot
	n.mu.Unlock()
	n.cond.Broadcast()
	if p.isSink {
		n.report(Report{Type: RepCatchUpDone, Phone: n.id, Slot: slot, Epoch: epoch})
		return
	}
	n.sendMarker(tuple.Marker{Kind: tuple.MarkerReplayEnd, Version: epoch})
}

// doResend replays retained output for a recovered downstream (input
// preservation, executed on the executor so ordering with fresh emissions
// is exact). The replay log is shipped in size-bounded batches over the
// same serialised delivery path as fresh output.
func (n *Node) doResend(downstream string, after uint64) {
	entries := n.cfg.Store.EdgeLogSince(downstream, after)
	p := n.pipe.Load()
	to, ok := n.graph.SlotID(downstream)
	if p == nil || !ok {
		return
	}
	maxMsgs, maxBytes := n.batch.maxMsgs, n.batch.maxBytes
	var b *batchMsg
	bytes := 0
	flush := func() {
		if b == nil {
			return
		}
		n.batch.sendMu.Lock()
		n.sendBatch(to, b, bytes, simnet.ClassRecovery)
		n.batch.sendMu.Unlock()
		b, bytes = nil, 0
	}
	for _, e := range entries {
		if b == nil {
			b = takeBatch()
		}
		fromOp, _ := n.graph.OpID(e.FromOp)
		toOp, _ := n.graph.OpID(e.ToOp)
		b.Msgs = append(b.Msgs, streamMsg{FromSlot: p.slotID, FromOp: fromOp, ToSlot: to,
			ToOp: toOp, EdgeSeq: e.EdgeSeq, Item: tuple.DataItem(e.T)})
		bytes += e.T.Size
		if len(b.Msgs) >= maxMsgs || bytes >= maxBytes {
			flush()
		}
	}
	flush()
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
