package workload

import (
	"math"
	"math/rand"
	"time"

	"mobistreams/internal/phone"
	"mobistreams/internal/simnet"
)

// mobilityTick is the position-update period for walking phones, in
// simulated time.
const mobilityTick = time.Second

// ChurnConfig parameterises the churn scenario generator: Poisson phone
// join/leave processes, battery-cliff leaves (the phone's pack suddenly
// reports nearly empty — the paper's dominant failure cause), and
// commuter-trace mobility leaves (the phone walks a straight line out of
// the WiFi range boundary, §III-E).
type ChurnConfig struct {
	// MeanLeave is the mean of the exponential inter-leave time (Poisson
	// process); 0 disables leaves.
	MeanLeave time.Duration
	// MeanJoin is the mean inter-join time; 0 disables joins.
	MeanJoin time.Duration
	// CliffShare is the probability a leave manifests as a battery cliff
	// rather than a commuter walk (default 0.5).
	CliffShare float64
	// CliffFraction is the battery fraction a cliff drops the victim to
	// (default 0.08: above the 0.05 chronic threshold, so the reactive
	// path sees nothing until the drain crosses it).
	CliffFraction float64
	// WalkSpeed is the commuter speed in m/s (default 12).
	WalkSpeed float64
	// RadiusM is the radius of the WiFi coverage disc, centred at the
	// origin, that a walking phone exits (default 120 m).
	RadiusM float64
	Seed    int64
}

func (c *ChurnConfig) applyDefaults() {
	if c.CliffShare <= 0 {
		c.CliffShare = 0.5
	}
	if c.CliffFraction <= 0 {
		c.CliffFraction = 0.08
	}
	if c.WalkSpeed <= 0 {
		c.WalkSpeed = 12
	}
	if c.RadiusM <= 0 {
		c.RadiusM = 120
	}
}

// ChurnHooks connects the generator to the system under test. All hooks
// must be non-nil except Join (nil disables joins regardless of MeanJoin).
type ChurnHooks struct {
	// Victim picks the next phone to leave; ok=false skips this event.
	Victim func(r *rand.Rand) (simnet.NodeID, bool)
	// Cliff applies a battery cliff to the victim.
	Cliff func(id simnet.NodeID, fraction float64)
	// Pos and SetPos read and write a walking phone's GPS fix.
	Pos    func(id simnet.NodeID) phone.Position
	SetPos func(id simnet.NodeID, p phone.Position)
	// SetVel records the walker's velocity (the placement planner's trajectory
	// telemetry).
	SetVel func(id simnet.NodeID, vx, vy float64)
	// Departed fires when a walker crosses the range boundary — the GPS
	// departure feed of §III-E.
	Departed func(id simnet.NodeID)
	// Join recruits phone number i into the region.
	Join func(i int)
}

// StartChurn launches the join and leave processes. Event times are drawn
// from seeded exponentials, so two runs with the same seed and config see
// the same churn schedule — the basis for reactive-vs-planner A/B runs.
func (g *Generator) StartChurn(hooks ChurnHooks, cfg ChurnConfig) {
	cfg.applyDefaults()
	if cfg.MeanLeave > 0 {
		g.wg.Add(1)
		go g.leaveLoop(hooks, cfg)
	}
	if cfg.MeanJoin > 0 && hooks.Join != nil {
		g.wg.Add(1)
		go g.joinLoop(hooks, cfg)
	}
}

func (g *Generator) joinLoop(hooks ChurnHooks, cfg ChurnConfig) {
	defer g.wg.Done()
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	next := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(cfg.MeanJoin)) }
	t := g.clk.NewTimer(next())
	defer t.Stop()
	for i := 0; ; i++ {
		select {
		case <-t.C():
			hooks.Join(i)
		case <-g.stopCh:
			return
		}
		t.Reset(next())
	}
}

func (g *Generator) leaveLoop(hooks ChurnHooks, cfg ChurnConfig) {
	defer g.wg.Done()
	rng := rand.New(rand.NewSource(cfg.Seed + 102))
	next := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(cfg.MeanLeave)) }
	t := g.clk.NewTimer(next())
	defer t.Stop()
	for ; ; t.Reset(next()) {
		select {
		case <-t.C():
		case <-g.stopCh:
			return
		}
		id, ok := hooks.Victim(rng)
		if !ok {
			continue
		}
		if rng.Float64() < cfg.CliffShare {
			hooks.Cliff(id, cfg.CliffFraction)
			continue
		}
		// Commuter walk: head radially outward from the centre through the
		// phone's current position (random bearing when it sits at the
		// centre), update the GPS fix every tick, and report the departure
		// when the boundary is crossed.
		pos := hooks.Pos(id)
		dx, dy := pos.X, pos.Y
		if dist := math.Hypot(dx, dy); dist > 1e-9 {
			dx, dy = dx/dist, dy/dist
		} else {
			theta := rng.Float64() * 2 * math.Pi
			dx, dy = math.Cos(theta), math.Sin(theta)
		}
		vx, vy := dx*cfg.WalkSpeed, dy*cfg.WalkSpeed
		hooks.SetVel(id, vx, vy)
		g.wg.Add(1)
		go g.walk(hooks, cfg, id, vx, vy)
	}
}

func (g *Generator) walk(hooks ChurnHooks, cfg ChurnConfig, id simnet.NodeID, vx, vy float64) {
	defer g.wg.Done()
	step := mobilityTick.Seconds()
	t := g.clk.NewTimer(mobilityTick)
	defer t.Stop()
	for ; ; t.Reset(mobilityTick) {
		select {
		case <-t.C():
		case <-g.stopCh:
			return
		}
		pos := hooks.Pos(id)
		pos.X += vx * step
		pos.Y += vy * step
		hooks.SetPos(id, pos)
		if pos.DistanceSq(phone.Position{}) >= cfg.RadiusM*cfg.RadiusM {
			hooks.Departed(id)
			return
		}
	}
}
