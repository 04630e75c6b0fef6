package node

import (
	"fmt"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
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
	rt := runtimeState{
		OutSeq:     p.outSeqMap(),
		InHW:       p.inHWMap(),
		LogVersion: n.logVersion.Load(),
	}
	slot = p.slot
	ops = p.operators()
	n.mu.Lock()
	base = n.ckptBase
	chainLen = n.ckptChainLen
	n.mu.Unlock()
	// The blob retains the runtime bytes indefinitely, so encode into an
	// exact-size fresh buffer rather than a pooled scratch one.
	wrt := wire.Runtime{OutSeq: rt.OutSeq, InHW: rt.InHW, LogVersion: rt.LogVersion}
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
