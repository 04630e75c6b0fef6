package region

import (
	"sort"

	"mobistreams/internal/placement"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
)

// PlacementSnapshot assembles the placement planner's input from one
// telemetry poll: the WiFi channel domains (membership, airtime, observed
// departures), every in-service phone's domain and telemetry, the current
// slot→phone assignment, and the graph's weighted slot communication
// edges. `spares` marks phones the controller holds claimed as warm
// spares — they are absent from the idle pool but available to the
// planner. The output obeys the engine's ordering contract (domains by
// ID, phones by ID, slots by name, edges by pair), so identical region
// state always snapshots identically.
func (r *Region) PlacementSnapshot(rs scheduler.RegionStats, spares map[simnet.NodeID]bool) placement.Snapshot {
	snap := placement.Snapshot{
		Region:  rs.Region,
		Now:     rs.Now,
		RadiusM: rs.RadiusM,
	}

	chans := r.wifi.ChannelStats()
	r.mu.Lock()
	departs := append([]int64(nil), r.domainDeparts...)
	for slot, id := range r.placement {
		snap.Slots = append(snap.Slots, placement.Assignment{Slot: slot, Phone: id})
	}
	r.mu.Unlock()
	sort.Slice(snap.Slots, func(i, j int) bool { return snap.Slots[i].Slot < snap.Slots[j].Slot })

	for i, cs := range chans {
		d := placement.Domain{
			ID: cs.Channel, Members: cs.Members, Present: cs.Present, Airtime: cs.Airtime,
		}
		if i < len(departs) {
			d.Departures = departs[i]
		}
		snap.Domains = append(snap.Domains, d)
	}

	for _, p := range rs.Phones {
		ch, ok := r.wifi.ChannelOf(p.ID)
		if !ok {
			continue
		}
		snap.Phones = append(snap.Phones, placement.Phone{
			ID:              p.ID,
			Domain:          ch,
			Idle:            p.Idle,
			Spare:           spares[p.ID],
			BatteryJoules:   p.BatteryJoules,
			BatteryFraction: p.BatteryFraction,
			DrainWatts:      p.DrainWatts,
			Backlog:         p.Backlog,
			X:               p.Position.X,
			Y:               p.Position.Y,
			VelX:            p.VelX,
			VelY:            p.VelY,
		})
	}

	for _, e := range r.cfg.Graph.SlotEdges() {
		snap.Edges = append(snap.Edges, placement.Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	return snap
}
