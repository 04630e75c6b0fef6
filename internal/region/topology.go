package region

import (
	"slices"
	"sort"
	"time"

	"mobistreams/internal/node"
	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// telePoint is one phone's energy at the previous snapshot.
type telePoint struct {
	at     time.Duration
	energy float64
}

// PlacementSnapshot assembles the placement planner's input: the WiFi
// channel domains (membership, airtime, observed departures), every
// in-service phone's domain, battery joules and drain rate since the
// previous snapshot, queue backlog and GPS position/velocity, and the
// graph's weighted slot communication edges. The slot→phone assignment
// and the idle pool are the controller's record, passed in; `spares`
// marks phones the controller holds claimed as warm spares — they are
// absent from the idle pool but available to the planner. Failed and
// departed phones are left out: they are the reactive path's problem, not
// the planner's. The output obeys the engine's ordering contract (domains
// by ID, phones by ID, slots by name, edges by pair), so identical region
// state always snapshots identically.
func (r *Region) PlacementSnapshot(slots []placement.Assignment, idle []simnet.NodeID, spares map[simnet.NodeID]bool) placement.Snapshot {
	snap := placement.Snapshot{Region: r.cfg.ID, Now: r.clk.Now(), RadiusM: r.cfg.RadiusM, Slots: slices.Clone(slots)}

	type entry struct {
		id   simnet.NodeID
		idle bool
		n    *node.Node
		ph   *phone.Phone
	}
	chans := r.wifi.ChannelStats()
	r.mu.Lock()
	departs := append([]int64(nil), r.domainDeparts...)
	entries := make([]entry, 0, len(r.phones))
	for id, ph := range r.phones {
		if !r.failed[id] && !r.departed[id] {
			entries = append(entries, entry{id: id, idle: slices.Contains(idle, id), n: r.nodes[id], ph: ph})
		}
	}
	r.mu.Unlock()
	sort.Slice(snap.Slots, func(i, j int) bool { return snap.Slots[i].Slot < snap.Slots[j].Slot })
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })

	for i, cs := range chans {
		d := placement.Domain{
			ID: cs.Channel, Members: cs.Members, Present: cs.Present, Airtime: cs.Airtime,
		}
		if i < len(departs) {
			d.Departures = departs[i]
		}
		snap.Domains = append(snap.Domains, d)
	}

	r.teleMu.Lock()
	defer r.teleMu.Unlock()
	prev := r.telePrev
	r.telePrev = make(map[simnet.NodeID]telePoint, len(entries))
	for _, e := range entries {
		energy := e.ph.EnergyJoules()
		r.telePrev[e.id] = telePoint{at: snap.Now, energy: energy}
		ch, ok := r.wifi.ChannelOf(e.id)
		if !ok {
			continue
		}
		pos := e.ph.Position()
		p := placement.Phone{
			ID:              e.id,
			Domain:          ch,
			Idle:            e.idle,
			Spare:           spares[e.id],
			BatteryJoules:   energy,
			BatteryFraction: e.ph.BatteryFraction(),
			X:               pos.X,
			Y:               pos.Y,
		}
		p.VelX, p.VelY = e.ph.Velocity()
		if e.n != nil {
			p.Backlog = e.n.Backlog()
		}
		if last, ok := prev[e.id]; ok && snap.Now > last.at && last.energy > energy {
			p.DrainWatts = (last.energy - energy) / (snap.Now - last.at).Seconds()
		}
		snap.Phones = append(snap.Phones, p)
	}

	for _, e := range r.cfg.Graph.SlotEdges() {
		snap.Edges = append(snap.Edges, placement.Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	return snap
}
