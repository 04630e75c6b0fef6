package node

import (
	"mobistreams/internal/graph"
	"mobistreams/internal/simnet"
)

// epochResolver is a resolver whose placement carries a monotonically
// increasing epoch: any change to a slot's primary or standby bumps the
// epoch. Nodes cache resolutions per slot and invalidate the whole cache on
// an epoch change, replacing the per-send resolver round-trip (a region-
// wide mutex plus a map lookup) with one atomic epoch load — while keeping
// failover correctness, because recovery, migration and handoff all repoint
// placements through epoch-bumping region calls.
type epochResolver interface {
	resolver
	Epoch() uint64
}

// routeEntry caches one resolution, including negative results (an
// unplaced slot or a promoted-away standby stays unresolvable until the
// next epoch bump). set marks a filled entry.
type routeEntry struct {
	id  simnet.NodeID
	ok  bool
	set bool
}

// routeSnapshot is one immutable epoch-stamped cache generation, indexed
// by SlotID. Lookups load the pointer, verify the epoch, and index the
// tables without locking; misses install a copy-on-write successor. Racing
// installs are benign — whichever snapshot lands last simply serves the
// next lookup.
type routeSnapshot struct {
	epoch   uint64
	primary []routeEntry
	standby []routeEntry
}

// resolvePrimary resolves a slot's primary through the epoch cache, or
// straight through the resolver when caching is unavailable.
func (n *Node) resolvePrimary(slot graph.SlotID) (simnet.NodeID, bool) {
	er := n.epochRes
	if er == nil {
		return n.cfg.Resolver.Primary(n.graph.SlotName(slot))
	}
	epoch := er.Epoch()
	rs := n.routes.Load()
	if rs != nil && rs.epoch == epoch {
		if e := rs.primary[slot]; e.set {
			return e.id, e.ok
		}
	}
	// The epoch must be read before the resolution: if a placement change
	// slips between the two, the stored snapshot carries the old epoch
	// and self-invalidates on the next lookup.
	id, ok := er.Primary(n.graph.SlotName(slot))
	n.installRoute(rs, epoch, slot, routeEntry{id, ok, true}, true)
	return id, ok
}

// resolveStandby resolves a slot's standby through the epoch cache.
func (n *Node) resolveStandby(slot graph.SlotID) (simnet.NodeID, bool) {
	er := n.epochRes
	if er == nil {
		return n.cfg.Resolver.Standby(n.graph.SlotName(slot))
	}
	epoch := er.Epoch()
	rs := n.routes.Load()
	if rs != nil && rs.epoch == epoch {
		if e := rs.standby[slot]; e.set {
			return e.id, e.ok
		}
	}
	id, ok := er.Standby(n.graph.SlotName(slot))
	n.installRoute(rs, epoch, slot, routeEntry{id, ok, true}, false)
	return id, ok
}

// installRoute publishes a copy-on-write snapshot extending prev (when it
// is still the current epoch) with one fresh entry.
func (n *Node) installRoute(prev *routeSnapshot, epoch uint64, slot graph.SlotID, e routeEntry, primary bool) {
	next := &routeSnapshot{
		epoch:   epoch,
		primary: make([]routeEntry, n.graph.NumSlotIDs()),
		standby: make([]routeEntry, n.graph.NumSlotIDs()),
	}
	if prev != nil && prev.epoch == epoch {
		copy(next.primary, prev.primary)
		copy(next.standby, prev.standby)
	}
	if primary {
		next.primary[slot] = e
	} else {
		next.standby[slot] = e
	}
	n.routes.Store(next)
}
