package region

import (
	"sort"
	"time"

	"mobistreams/internal/node"
	"mobistreams/internal/phone"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
)

// telePoint is one phone's previous telemetry poll, differentiated into
// drain and tuple rates on the next poll.
type telePoint struct {
	at        time.Duration
	energy    float64
	processed uint64
}

// Telemetry snapshots the region for the placement planner: per-phone
// battery joules and observed drain rate, queue backlog and tuple rate from
// the node runtime, and the GPS position/velocity the departure forecast
// extrapolates. Failed and departed phones are excluded — they are the
// reactive path's problem, not the planner's.
func (r *Region) Telemetry() scheduler.RegionStats {
	now := r.clk.Now()

	r.mu.Lock()
	type entry struct {
		id    simnet.NodeID
		slots []string
		idle  bool
		n     *node.Node
		ph    *phone.Phone
	}
	entries := make([]entry, 0, len(r.phones))
	idle := make(map[simnet.NodeID]bool, len(r.idle))
	for _, id := range r.idle {
		idle[id] = true
	}
	slotsOn := make(map[simnet.NodeID][]string)
	for s, p := range r.placement {
		slotsOn[p] = append(slotsOn[p], s)
	}
	for id := range r.phones {
		if r.failed[id] || r.departed[id] {
			continue
		}
		entries = append(entries, entry{
			id: id, slots: slotsOn[id], idle: idle[id],
			n: r.nodes[id], ph: r.phones[id],
		})
	}
	rs := scheduler.RegionStats{
		Region:  r.cfg.ID,
		Now:     now,
		RadiusM: r.cfg.RadiusM,
	}
	r.mu.Unlock()

	r.teleMu.Lock()
	defer r.teleMu.Unlock()
	seen := make(map[simnet.NodeID]bool, len(entries))
	for _, e := range entries {
		seen[e.id] = true
		ph := e.ph
		st := scheduler.PhoneStat{
			ID:              e.id,
			Slots:           append([]string(nil), e.slots...),
			Idle:            e.idle,
			BatteryJoules:   ph.EnergyJoules(),
			BatteryFraction: ph.BatteryFraction(),
			Position:        ph.Position(),
		}
		sort.Strings(st.Slots)
		st.VelX, st.VelY = ph.Velocity()
		var processed uint64
		if e.n != nil {
			st.Backlog = e.n.Backlog()
			processed = e.n.Processed()
		}
		if prev, ok := r.telePrev[e.id]; ok && now > prev.at {
			dt := (now - prev.at).Seconds()
			if drained := prev.energy - st.BatteryJoules; drained > 0 {
				st.DrainWatts = drained / dt
			}
			if processed > prev.processed {
				st.TupleRate = float64(processed-prev.processed) / dt
			}
		}
		r.telePrev[e.id] = telePoint{at: now, energy: st.BatteryJoules, processed: processed}
		rs.Phones = append(rs.Phones, st)
	}
	for id := range r.telePrev {
		if !seen[id] {
			delete(r.telePrev, id)
		}
	}
	sort.Slice(rs.Phones, func(i, j int) bool { return rs.Phones[i].ID < rs.Phones[j].ID })
	return rs
}
