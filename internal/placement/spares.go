package placement

import (
	"sort"

	"mobistreams/internal/simnet"
)

// planSpares rebalances the warm spare pools after the migrate steps are
// chosen: every domain that hosts slots keeps sparesPerDomain healthy idle
// phones claimed (one more when its departure-rate estimate runs hot), and
// spares that are surplus, consumed as migration targets, or themselves
// forecast to leave are replaced or returned to the shared idle pool.
// Releases precede reserves so a domain swap never over-claims the pool.
func (e *Engine) planSpares(s *Snapshot, f *forecast, pk packing, used map[simnet.NodeID]bool) []Step {
	nd := len(s.Domains)
	if nd == 0 {
		return nil
	}

	type pool struct {
		spares []*Phone // healthy unconsumed spares, for surplus release
		idles  []*Phone // healthy unclaimed idles, for reserving
	}
	pools := make([]pool, nd)
	var releases []Step
	for i := range s.Phones {
		p := &s.Phones[i]
		if p.Domain < 0 || p.Domain >= nd || used[p.ID] {
			continue
		}
		healthy := f.healthy(i, p)
		switch {
		case p.Spare && !healthy:
			reason := "spare:unfit"
			if h, ok := f.doomed[i]; ok {
				reason = hazardReason(h)
			}
			releases = append(releases, Step{
				Kind: StepRelease, To: p.ID, Domain: p.Domain, Reason: reason,
			})
		case p.Spare:
			pools[p.Domain].spares = append(pools[p.Domain].spares, p)
		case p.Idle && healthy:
			pools[p.Domain].idles = append(pools[p.Domain].idles, p)
		}
	}

	var reserves []Step
	for d := 0; d < nd; d++ {
		want := 0
		if len(pk.planned) > d && pk.planned[d] > 0 {
			want = sparesPerDomain
			if f.rate[d] >= departRateBoost {
				want++
			}
		}
		sp, idle := pools[d].spares, pools[d].idles
		if len(sp) > want {
			// Release the weakest spares back to the shared pool.
			sort.Slice(sp, func(i, j int) bool {
				if sp[i].BatteryFraction != sp[j].BatteryFraction {
					return sp[i].BatteryFraction < sp[j].BatteryFraction
				}
				return sp[i].ID < sp[j].ID
			})
			for _, p := range sp[:len(sp)-want] {
				releases = append(releases, Step{
					Kind: StepRelease, To: p.ID, Domain: d, Reason: "spare:surplus",
				})
			}
		}
		if deficit := want - len(sp); deficit > 0 {
			sort.Slice(idle, func(i, j int) bool {
				if idle[i].BatteryFraction != idle[j].BatteryFraction {
					return idle[i].BatteryFraction > idle[j].BatteryFraction
				}
				return idle[i].ID < idle[j].ID
			})
			reason := "spare:pool"
			if f.rate[d] >= departRateBoost {
				reason = "spare:churn"
			}
			for i := 0; i < deficit && i < len(idle); i++ {
				reserves = append(reserves, Step{
					Kind: StepReserve, To: idle[i].ID, Domain: d, Reason: reason,
				})
			}
		}
	}

	sort.Slice(releases, func(i, j int) bool { return releases[i].To < releases[j].To })
	return append(releases, reserves...)
}
