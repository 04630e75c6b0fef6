package placement

import (
	"fmt"
	"math"
	"time"

	"mobistreams/internal/simnet"
)

// hazard is one phone's predicted departure: In is how long until the
// phone is expected to leave service, Reason a stable label for plan steps.
type hazard struct {
	In     time.Duration
	Reason string
}

// reasonBatteryLow labels the one hazard with no horizon to extrapolate:
// the battery already sits below the floor.
const reasonBatteryLow = "battery-low"

// forecastPhone extrapolates one phone's telemetry into its nearest
// predicted departure: battery death from the observed drain curve, or the
// straight-line GPS trajectory crossing the WiFi boundary. It returns
// (hazard, true) only when a departure is predicted at all.
func forecastPhone(s *Snapshot, p *Phone) (hazard, bool) {
	best, ok := hazard{}, false
	note := func(in time.Duration, reason string) {
		if !ok || in < best.In {
			best, ok = hazard{In: in, Reason: reason}, true
		}
	}
	if p.DrainWatts > 0 && p.BatteryJoules > 0 {
		note(time.Duration(p.BatteryJoules/p.DrainWatts*float64(time.Second)), "battery")
	}
	if in, crossing := timeToBoundary(s, p); crossing {
		note(in, "trajectory")
	}
	return best, ok
}

// timeToBoundary extrapolates the phone's straight-line trajectory to the
// WiFi range boundary. It returns (d, true) when the phone is inside the
// boundary and moving so that it crosses it d from now, or is already out
// (d = 0); (0, false) when the phone is stationary, inbound or tangential,
// or the region has no boundary configured. Positions are relative to the
// region centre.
func timeToBoundary(s *Snapshot, p *Phone) (time.Duration, bool) {
	if s.RadiusM <= 0 {
		return 0, false
	}
	dist := math.Sqrt(p.X*p.X + p.Y*p.Y)
	if dist >= s.RadiusM {
		return 0, true // already out
	}
	speed := math.Sqrt(p.VelX*p.VelX + p.VelY*p.VelY)
	if speed <= 0 {
		return 0, false
	}
	var vr float64
	if dist > 0 {
		vr = (p.X*p.VelX + p.Y*p.VelY) / dist
	} else {
		vr = speed
	}
	if vr <= 0 {
		return 0, false
	}
	return time.Duration((s.RadiusM - dist) / vr * float64(time.Second)), true
}

// forecast is the per-plan hazard view: which phones are predicted to leave
// within the horizon, and each domain's departure-rate capacity outlook.
type forecast struct {
	// doomed maps phone index (into Snapshot.Phones) to its hazard for
	// phones predicted to leave within the engine's horizon.
	doomed map[int]hazard
	// rate is each domain's estimated departure rate in phones per minute,
	// an EWMA the engine differentiates across plans.
	rate []float64
}

func (f *forecast) doomedPhone(s *Snapshot, id string) (hazard, bool) {
	for i := range s.Phones {
		if string(s.Phones[i].ID) == id {
			h, ok := f.doomed[i]
			return h, ok
		}
	}
	return hazard{}, false
}

// healthy reports whether a phone is a sound migration target or spare: in
// service, enough battery headroom, and not predicted to leave.
func (f *forecast) healthy(i int, p *Phone) bool {
	if _, bad := f.doomed[i]; bad {
		return false
	}
	return p.BatteryFraction <= 0 || p.BatteryFraction >= minBatteryFraction
}

// runForecast builds the hazard view for one snapshot and updates the
// engine's departure-rate EWMA from the per-domain departure counters.
func (e *Engine) runForecast(s *Snapshot) *forecast {
	f := &forecast{doomed: make(map[int]hazard), rate: make([]float64, len(s.Domains))}
	hosting := make(map[simnet.NodeID]bool, len(s.Slots))
	for _, a := range s.Slots {
		hosting[a.Phone] = true
	}
	for i := range s.Phones {
		p := &s.Phones[i]
		if hosting[p.ID] && p.BatteryFraction > 0 && p.BatteryFraction < minBatteryFraction {
			// A host under the floor the engine refuses targets at is
			// leaving now, whatever its drain estimate says.
			f.doomed[i] = hazard{Reason: reasonBatteryLow}
		} else if h, ok := forecastPhone(s, p); ok && h.In <= hazardHorizon {
			f.doomed[i] = h
		}
	}

	// Poisson departure-rate per domain: differentiate the cumulative
	// counters across plans into phones/minute, smoothed with an EWMA so
	// one noisy window neither starves nor floods the spare pools.
	c := e.churn[s.Region]
	if c == nil || len(c.departRate) != len(s.Domains) {
		c = &churnState{
			departRate:  make([]float64, len(s.Domains)),
			lastDeparts: make([]int64, len(s.Domains)),
			lastNow:     s.Now,
		}
		for i := range s.Domains {
			c.lastDeparts[i] = s.Domains[i].Departures
		}
		e.churn[s.Region] = c
	} else if dt := s.Now - c.lastNow; dt > 0 {
		const alpha = 0.5
		perMin := float64(time.Minute) / float64(dt)
		for i := range s.Domains {
			obs := float64(s.Domains[i].Departures-c.lastDeparts[i]) * perMin
			c.departRate[i] = alpha*obs + (1-alpha)*c.departRate[i]
			c.lastDeparts[i] = s.Domains[i].Departures
		}
		c.lastNow = s.Now
	}
	copy(f.rate, c.departRate)
	return f
}

func hazardReason(h hazard) string {
	if h.Reason == reasonBatteryLow {
		return "evac:" + reasonBatteryLow
	}
	return fmt.Sprintf("evac:%s(%s)", h.Reason, h.In.Round(time.Second))
}
