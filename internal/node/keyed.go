package node

import (
	"fmt"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// This file is the node half of elastic keyed parallelism: exporting and
// importing contiguous key ranges of an instance's KeyedState during a
// live split or merge, and relaying tuples that arrive for a key range
// this instance no longer owns. The region orchestrates the protocol
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
// this instance. The caller must have paused the executor (PauseExec):
// the store is executor-owned and the removal must be atomic against
// tuple processing. A nil return with nil error means the operator keeps
// no keyed state (routing-only split).
func (n *Node) ExportKeyRange(lo, hi string) ([]byte, error) {
	p := n.pipe.Load()
	if p == nil {
		return nil, fmt.Errorf("node %s: key-range export without a hosted slot", n.id)
	}
	if p.keyedGroup == nil {
		return nil, fmt.Errorf("node %s: slot %s hosts no keyed instance", n.id, p.slot)
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
// under a private executor pause (the state store is executor-owned),
// then bump the import generation the region is polling.
func (n *Node) handleKeyRangeIn(m KeyRangeMsg) {
	n.PauseExec()
	err := n.ImportKeyRange(m.State)
	n.ResumeExec()
	if err != nil {
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
