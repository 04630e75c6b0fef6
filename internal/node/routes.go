package node

import (
	"mobistreams/internal/graph"
	"mobistreams/internal/simnet"
)

// Routes is one version of a region's route table: indexed by graph.SlotID,
// the endpoint hosting each slot's primary and its rep-2 standby ("" for
// none). A table is immutable once built: one value goes to every node.
type Routes struct {
	Version uint64
	Primary []simnet.NodeID
	Standby []simnet.NodeID
}

// lookup returns ids[slot], false when the table names no endpoint there.
func lookup(ids []simnet.NodeID, slot graph.SlotID) (simnet.NodeID, bool) {
	if int(slot) >= len(ids) || ids[slot] == "" {
		return "", false
	}
	return ids[slot], true
}

// routeState is the node's current table and the signal a parked sender
// waits on: moved closes when a newer table, or a restore's rewind,
// replaces this state.
type routeState struct {
	tbl   *Routes
	moved chan struct{}
}

// primary resolves a slot's primary through the node's own table.
func (n *Node) primary(slot graph.SlotID) (simnet.NodeID, bool) {
	return lookup(n.routes.Load().tbl.Primary, slot)
}

// standby resolves a slot's standby through the node's own table.
func (n *Node) standby(slot graph.SlotID) (simnet.NodeID, bool) {
	return lookup(n.routes.Load().tbl.Standby, slot)
}

// installRoutes makes t the node's table unless it is no newer than the
// current one, and wakes the senders parked on the old table.
func (n *Node) installRoutes(t *Routes) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur := n.routes.Load(); t == nil || t.Version <= cur.tbl.Version {
		return
	}
	n.moveRoutesLocked(t)
	n.jot("node.routes", t.Version, "")
}

// moveRoutesLocked swaps in a fresh state for t and closes the old state's
// moved signal. Caller holds n.mu.
func (n *Node) moveRoutesLocked(t *Routes) {
	old := n.routes.Swap(&routeState{tbl: t, moved: make(chan struct{})})
	if old != nil {
		close(old.moved)
	}
}
