package scheduler

import (
	"time"

	"mobistreams/internal/placement"
)

// Planner is the migration decider: it wraps the placement.Engine and
// filters its migrate steps through the shared per-slot cooldowns ledger,
// so plans and elastic split/merges back off slots the other just
// disrupted. It plans for any topology — with a single WiFi channel the
// engine's pack pass has nothing to consolidate and the plan is forecast
// evacuations plus the spare pool.
type Planner struct {
	Engine *placement.Engine
	// Cooldown is the per-slot window applied to migrate steps (default
	// 10 s). It has to stay shorter than a phone that crosses the battery
	// floor lasts: a fresh host can cliff right after it received a slot
	// (8% of 150 J is ~20 s under load), and a window that outlasts it
	// turns the second evacuation into a reactive recovery.
	Cooldown time.Duration
	// Cooldowns is the shared disruption ledger; a private one is used
	// when nil.
	Cooldowns *cooldowns
}

// NewPlanner creates a planner sharing the given cooldown ledger.
func NewPlanner(engine *placement.Engine, ledger *cooldowns) *Planner {
	if ledger == nil {
		ledger = newCooldowns()
	}
	return &Planner{Engine: engine, Cooldowns: ledger}
}

// Plan produces the next placement plan for one snapshot. Migrate steps
// for slots inside the cooldown window are dropped from the plan. The kept
// ones are not charged here: the executor reports each migrate step it
// actually attempts through Attempted, so steps behind an aborted one stay
// plannable on the next tick.
func (p *Planner) Plan(snap placement.Snapshot) *placement.Plan {
	window := p.Cooldown
	if window <= 0 {
		window = 10 * time.Second
	}
	plan := p.Engine.Plan(snap)
	kept := plan.Steps[:0]
	for _, st := range plan.Steps {
		if st.Kind == placement.StepMigrate && !p.Cooldowns.ready(snap.Region, st.Slot, snap.Now, window) {
			continue
		}
		kept = append(kept, st)
	}
	plan.Steps = kept
	return plan
}

// Attempted charges the slot's cooldown: the plan executor calls it when
// it starts a migrate step, whether or not the migration then lands.
func (p *Planner) Attempted(region, slot string, now time.Duration) {
	p.Cooldowns.note(region, slot, now)
}
