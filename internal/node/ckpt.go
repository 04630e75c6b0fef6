package node

import (
	"fmt"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/checkpoint"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
)

// CheckpointConfig parameterises the node's checkpoint pipeline.
//
// The default (incremental-async) pipeline stops the executor only for the
// in-memory state copy: the blob is built as a delta against the previous
// checkpoint where operators support it, and the flash write plus the
// chunked WiFi upload happen on the persist goroutine while tuples flow
// again. FullOnly restores the paper's worst case — every checkpoint
// serialises the whole state and writes it to flash inside the executor's
// stop-the-world window — which is what the `msbench -exp checkpoint`
// experiment compares against.
type CheckpointConfig struct {
	// FullOnly disables delta chains and moves the flash write into the
	// executor's critical section (synchronous full-blob checkpointing).
	FullOnly bool
}

// rebaseEvery bounds the delta chain: every rebaseEvery-th checkpoint is a
// self-contained full base blob, so restore replays at most rebaseEvery
// links and a lost base dooms at most that many versions.
const rebaseEvery = 4

// memCopyBps models the in-memory copy bandwidth of the short
// stop-the-world window: DRAM-speed serialisation (400 MB/s) versus the
// ~10 MB/s flash the synchronous path stalls on.
const memCopyBps = 400e6

// copyTime is the modelled executor pause for copying n state bytes out of
// the operators at the tuple boundary.
func copyTime(n int) time.Duration {
	return time.Duration(float64(n) / memCopyBps * float64(time.Second))
}

// observeCheckpoint records one checkpoint into the region's checkpoint
// families: the executor pause it cost, the bytes its blob put on flash and
// network (by blob kind), and the full-state bytes it stands for.
func (n *Node) observeCheckpoint(pause time.Duration, blob *checkpoint.Blob) {
	if n.obsReg == nil {
		return
	}
	kind := obs.CkptFullBlob
	if blob.IsDelta() {
		kind = obs.CkptDeltaBlob
	}
	n.obsReg.Hist(obs.CkptPause, blob.Slot).Observe(int64(pause))
	n.obsReg.Hist(kind, blob.Slot).Observe(int64(blob.Size))
	n.obsReg.Hist(obs.CkptState, blob.Slot).Observe(int64(blob.FullSize))
}

// snapshotParts collects everything a checkpoint needs: the slot, the
// operator set and the edge counters from the compiled pipeline, the
// wire-encoded runtime state, and the delta-chain position. The runtime
// bytes are deterministic (sorted map order, fixed-width integers), so the
// same logical state always checkpoints to the same blob bytes — gob, the
// previous encoding here, randomised map entry order.
func (n *Node) snapshotParts() (slot string, ops []operator.Operator, extra []byte, base uint64, chainLen int, err error) {
	p := n.pipe.Load()
	if p == nil {
		return "", nil, nil, 0, 0, fmt.Errorf("node %s: snapshot without a hosted slot", n.id)
	}
	wrt := wire.Runtime{OutSeq: p.outSeqMap(), InHW: p.inHWMap(), LogVersion: n.logVersion.Load()}
	slot = p.slot
	ops = p.operators()
	n.mu.Lock()
	base = n.ckptBase
	chainLen = n.ckptChainLen
	n.mu.Unlock()
	// The blob retains the runtime bytes indefinitely, so encode into an
	// exact-size fresh buffer rather than a pooled scratch one.
	extra = wire.AppendRuntime(make([]byte, 0, wire.SizeRuntime(&wrt)), &wrt)
	return slot, ops, extra, base, chainLen, nil
}

// snapshot builds a self-contained full checkpoint blob (periodic
// dist-n/local checkpoints and handoff transfers).
func (n *Node) snapshot(v uint64) (*checkpoint.Blob, error) {
	slot, ops, extra, _, _, err := n.snapshotParts()
	if err != nil {
		return nil, err
	}
	return checkpoint.BuildBlob(slot, v, ops, extra)
}

// buildCheckpoint builds the token-checkpoint blob: a delta against the
// previous checkpoint when the pipeline is incremental, the chain is under
// its rebase threshold and a prior basis exists; a full base blob
// otherwise. It advances the node's chain position and re-marks every
// delta-capable operator's baseline at v.
func (n *Node) buildCheckpoint(v uint64) (*checkpoint.Blob, error) {
	slot, ops, extra, base, chainLen, err := n.snapshotParts()
	if err != nil {
		return nil, err
	}
	ck := n.cfg.Checkpoint
	var blob *checkpoint.Blob
	if !ck.FullOnly && base != 0 && chainLen < rebaseEvery-1 {
		blob, err = checkpoint.BuildDeltaBlob(slot, v, base, ops, extra)
	} else {
		blob, err = checkpoint.BuildBlob(slot, v, ops, extra)
	}
	if err != nil {
		return nil, err
	}
	if !ck.FullOnly {
		for _, op := range ops {
			if ds, ok := op.(operator.DeltaSnapshotter); ok {
				ds.MarkSnapshot(v)
			}
		}
	}
	n.mu.Lock()
	n.ckptBase = v
	if blob.IsDelta() {
		n.ckptChainLen = chainLen + 1
	} else {
		n.ckptChainLen = 0
	}
	n.mu.Unlock()
	return blob, nil
}

// loadRestoreBlob materialises the full state for (v, slot): from the local
// chain when it is complete, otherwise from a live peer — a torn local
// chain (interrupted upload, missed dissemination) must not doom the
// restore while a peer holds a complete one.
func (n *Node) loadRestoreBlob(v uint64, slot string) *checkpoint.Blob {
	if blob, err := n.cfg.Store.MaterializeBlob(v, slot); err == nil {
		// Restoration reads the chain from local flash (§III-D: each node
		// reads state from local storage, in parallel across nodes). The
		// materialised blob's size is the full state size.
		n.clk.Sleep(n.cfg.Phone.FlashReadTime(blob.Size))
		return blob
	}
	for _, peer := range n.livePeers() {
		reply := make(chan simnet.Message, 1)
		if n.cfg.WiFi.Request(n.id, peer, simnet.ClassRecovery, 32, fetchBlobReq{Slot: slot, Version: v}, reply) != nil {
			continue
		}
		timeout := n.clk.NewTimer(30 * time.Second)
		select {
		case msg := <-reply:
			timeout.Stop()
			if b, ok := msg.Payload.(*checkpoint.Blob); ok && b != nil {
				return b
			}
		case <-timeout.C():
		}
	}
	return nil
}

// InjectToken makes a source slot admit a checkpoint token for version v
// at the next tuple boundary (controller notification, §III-B step 1).
func (n *Node) InjectToken(v uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.queueFor(graph.ExternalSlot)
	if q == nil {
		return
	}
	*q.slot() = queued{fromOp: graph.NoOp, toOp: graph.NoOp, item: tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerToken, Version: v})}
	n.cond.Signal()
}

// popRunLocked completes the preservation run opened by first, an item just
// popped from a source slot's external queue q: the fresh tuples queued
// directly behind it for the same source operator, as many as fit one
// broadcast block with it (a larger tuple travels alone; every tuple counts
// for at least a byte, so a run is bounded whatever the sizes). It never
// spans a marker — a token moves the log version, a replay-end marker ends
// the replayed tuples, which are not preserved again — and is popped whole:
// restore keeps what is still queued as never preserved. Markers and
// replayed tuples open no run (nil). The run lives in scratch buffer buf,
// which must hold no committed block. Caller holds n.mu.
func (n *Node) popRunLocked(q *upQueue, first *queued, buf int) []queued {
	t := first.item.Tuple
	if t == nil || t.Replay {
		return nil
	}
	run := append(n.runs[buf][:0], *first)
	for size := max(t.Size, 1); q.len() > 0; {
		next := &q.items[q.head]
		nt := next.item.Tuple
		if nt == nil || nt.Replay || next.toOp != first.toOp {
			break
		}
		if size += max(nt.Size, 1); size > n.cfg.Broadcast.BlockSize {
			break
		}
		run = append(run, queued{})
		q.pop(&run[len(run)-1])
	}
	n.runs[buf] = run
	return run
}

// topUpRun pops the next preservation run of external queue qi into scratch
// buffer buf, but only when the executor's own loop would pick exactly that
// next: a committed block was logged under the current log version, so it
// must execute before any token, command, timer or pause is handled, and
// nothing may be committed past one.
func (n *Node) topUpRun(p *pipeline, qi, buf int) []queued {
	if len(p.timers) > 0 && p.timerDue(n.clk.Now()) {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if life := n.life.Load(); life.role.dead() || life.pauses > 0 || len(n.cmds) > 0 {
		return nil
	}
	q := n.qList[qi]
	if q.stalled || q.len() == 0 {
		return nil
	}
	for i, sib := range n.qList {
		if i != qi && !sib.stalled && sib.len() > 0 {
			return nil
		}
	}
	if t := q.items[q.head].item.Tuple; t == nil || t.Replay {
		return nil
	}
	var first queued
	q.pop(&first)
	return n.popRunLocked(q, &first, buf)
}

// handleRun preserves runs of admitted source tuples, starting with run (in
// scratch buffer 0), and executes them in admission order as a two-deep
// pipeline: while a committed block waits out its flash write and executes,
// the next run is already being committed behind it, so the modelled wait
// hides behind useful work. A block executes only once its own write is
// durable. A node that fails or is stopped part-way (a battery dying inside
// runOp) abandons every tuple not yet executed, committed blocks included:
// preserved but unprocessed is exactly what replay expects. A timed first
// tuple takes its dequeue stamp before the commit, and the previous block's
// end stamp flows into the next: a block's first tuple carries the residual
// flash wait in its operator latency, not its edge wait.
func (n *Node) handleRun(p *pipeline, qi int, run []queued, now time.Duration) time.Duration {
	if n.obsReg != nil && now < run[0].at && (p.timing[qi].due() || run[0].tc.ID != 0) {
		now = n.clk.Now()
	}
	// A committed block is the run in scratch buffer i, durable on flash at
	// durable[i]; head executes next.
	var durable [2]time.Duration
	durable[0] = n.preserveRun(run)
	for head, committed := 0, 1; committed > 0; head, committed = head^1, committed-1 {
		if committed == 1 {
			if next := n.topUpRun(p, qi, head^1); next != nil {
				durable[head^1] = n.preserveRun(next)
				committed++
			}
		}
		run = n.runs[head]
		// Park, not Sleep: when a next run is waiting, its write is already
		// queued behind this one, so waking a few µs late idles no device.
		n.clk.Park(durable[head] - n.clk.Now())
		for i := range run {
			now = n.handleItem(p, qi, &run[i], now)
			select {
			case <-n.stopCh:
				clear(n.runs[0])
				clear(n.runs[1])
				return noStamp
			default:
			}
		}
		clear(run) // the scratch must not pin the tuples until it is reused
	}
	return now
}

// preserveRun begins source preservation (§III-B step 3) for a run as a
// group commit: the run joins the local replay log in one append and one
// flash write and, when configured, is replicated to every phone in one UDP
// broadcast datagram. Modelled flash time, airtime payload and radio energy
// are those of the run's summed bytes. It does not wait for the flash: it
// queues the write behind those already on the device (writes are serial,
// never overlapped) and returns when it completes. The run's tuple list is
// carved from the executor's preservation slab, so a run allocates at most
// its datagram.
func (n *Node) preserveRun(run []queued) time.Duration {
	ts := n.carveRunTs(len(run))
	size := 0
	for i := range run {
		ts[i] = run[i].item.Tuple
		size += ts[i].Size
	}
	v, srcOp := n.logVersion.Load(), n.graph.OpName(run[0].toOp)
	n.cfg.Store.AppendSourceRun(v, srcOp, ts)
	n.flashDone = max(n.clk.Now(), n.flashDone) + n.cfg.Phone.FlashWriteTime(size)
	if n.cfg.PreserveBroadcast {
		n.cfg.WiFi.Broadcast(n.id, simnet.ClassPreserve, size, &preserveMsg{Version: v, Source: srcOp, Ts: ts})
		n.cfg.Phone.DrainTx(size)
	}
	return n.flashDone
}

// runSlabLen is how many tuple pointers one preservation slab array holds:
// 2 KB, enough for 256 runs of one tuple.
const runSlabLen = 256

// carveRunTs returns a k-entry tuple list carved from the preservation
// slab. Like tuple.Slab, a carved range is never handed out again, because
// receivers read a broadcast list from their inboxes long after the run has
// moved on. The log and every replica copy the pointers out, so an array
// lives only while a datagram in flight still points into it.
func (n *Node) carveRunTs(k int) []*tuple.Tuple {
	if len(n.runSlab) < k {
		n.runSlab = make([]*tuple.Tuple, max(k, runSlabLen))
	}
	ts := n.runSlab[:k:k]
	n.runSlab = n.runSlab[k:]
	return ts
}

// onToken runs the alignment step of token-triggered checkpointing.
func (n *Node) onToken(p *pipeline, qi int, v uint64, edgeSeq uint64) {
	from := p.upstreams[qi]
	if from != graph.ExternalSlot {
		p.noteInHW(qi, edgeSeq)
	} else {
		n.logVersion.Store(v)
	}
	n.mu.Lock()
	st, err := n.align.OnToken(n.graph.SlotName(from), v)
	if err != nil {
		n.mu.Unlock()
		return
	}
	if !st.Complete {
		n.qList[qi].stalled = true
		n.mu.Unlock()
		return
	}
	for _, q := range n.qList {
		q.stalled = false
	}
	n.mu.Unlock()
	n.cond.Broadcast()
	n.doTokenCheckpoint(v)
}

// doTokenCheckpoint snapshots the node (MobiStreams path), hands the blob
// to the async persist worker, and forwards the token (§III-B step 2).
//
// The executor's stop-the-world window covers only what the pipeline mode
// demands: the in-memory state copy under incremental-async (the flash
// write and chunked upload ride the persist goroutine), or the copy plus
// the synchronous flash write under FullOnly — the full-blob baseline whose
// pause grows with state size.
func (n *Node) doTokenCheckpoint(v uint64) {
	start := n.clk.Now()
	n.jot("ckpt.begin", v, "")
	blob, err := n.buildCheckpoint(v)
	if err != nil {
		return
	}
	n.clk.Sleep(copyTime(blob.FullSize))
	if n.cfg.Checkpoint.FullOnly {
		n.clk.Sleep(n.cfg.Phone.FlashWriteTime(blob.Size))
	}
	n.cfg.Store.PutBlob(blob)
	n.jot("ckpt.seal", v, blob.Slot)
	n.observeCheckpoint(n.clk.Now()-start, blob)
	n.report(Report{Type: RepCheckpointed, Phone: n.id, Slot: blob.Slot, Version: v})
	select {
	case n.persistCh <- blob:
	default:
	}
	n.sendMarker(tuple.Marker{Kind: tuple.MarkerToken, Version: v})
}

// doPeriodicSnapshot is the local/dist-n checkpoint path: snapshot at a
// tuple boundary, charge the synchronous flash write, and under dist-n
// ship the state copies to the n peers *synchronously* — the classic
// schemes' checkpoint stalls the operator until the state is safe
// (Cooperative HA's HAU pause), which is the overhead the paper's Fig. 8
// exposes as n grows.
func (n *Node) doPeriodicSnapshot(v uint64) {
	start := n.clk.Now()
	blob, err := n.snapshot(v)
	if err != nil {
		return
	}
	n.cfg.Store.PutBlob(blob)
	n.clk.Sleep(n.cfg.Phone.FlashWriteTime(blob.Size))
	if p := n.pipe.Load(); p != nil {
		n.mu.Lock()
		n.hwAt[v] = p.inHWMap()
		n.mu.Unlock()
	}
	n.report(Report{Type: RepCheckpointed, Phone: n.id, Slot: blob.Slot, Version: v})
	// A periodic snapshot is a full blob, so a peer whose unicast landed
	// holds v's whole chain.
	var holders []simnet.NodeID
	if n.cfg.DistPeers != nil {
		for _, p := range n.cfg.DistPeers(blob.Slot) {
			if err := n.cfg.WiFi.Unicast(n.id, p, simnet.ClassCheckpoint, blob.Size, distBlobMsg{Blob: blob}); err == nil {
				holders = append(holders, p)
				n.cfg.Phone.DrainTx(blob.Size)
			}
		}
	}
	// The classic schemes stall the executor through the flash write and
	// the peer shipping — their whole checkpoint is the pause.
	n.observeCheckpoint(n.clk.Now()-start, blob)
	n.report(Report{Type: RepPersisted, Phone: n.id, Slot: blob.Slot, Version: v, Holders: holders})
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
		if target, ok := n.primary(id); ok {
			send(up, target)
		}
	}
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
				n.report(Report{Type: RepPersisted, Phone: n.id, Slot: blob.Slot, Version: blob.Version})
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
