package controller

import (
	"fmt"
	"sort"

	"mobistreams/internal/placement"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
)

// runPlan executes one planner tick for a region: snapshot the channel
// topology (with the controller's spare holdings), ask the planner for a
// plan, and execute its steps in order. The plan lifecycle is surfaced
// through the region journal: plan.propose when a non-empty plan starts,
// plan.step per executed step, then plan.commit — or plan.abort the moment
// a migrate step fails, because a failed migration means the snapshot went
// stale under the plan (the target departed, or recovery moved the slot)
// and executing the remaining steps would compound the drift; the next
// tick replans from fresh telemetry.
func (c *Controller) runPlan(m *managed, stats scheduler.RegionStats) {
	m.mu.Lock()
	spares := make(map[simnet.NodeID]bool, len(m.spares))
	for id := range m.spares {
		spares[id] = true
	}
	m.mu.Unlock()

	plan := c.cfg.Planner.Plan(m.r.PlacementSnapshot(stats, spares))
	if len(plan.Steps) == 0 {
		return
	}
	m.r.Jot("plan.propose", "", plan.Version, fmt.Sprintf("%d steps", len(plan.Steps)))
	abort := func(st placement.Step, why string) {
		m.r.Jot("plan.abort", st.Slot, plan.Version, why)
		m.mu.Lock()
		m.planAborts++
		m.mu.Unlock()
	}
	for i, st := range plan.Steps {
		if c.stopped() || m.isDead() {
			abort(st, "controller stopping")
			return
		}
		ok := c.execStep(m, st)
		m.r.Jot("plan.step", st.Slot, plan.Version,
			fmt.Sprintf("%d/%d ok=%v %s", i+1, len(plan.Steps), ok, st))
		if !ok && st.Kind == placement.StepMigrate {
			abort(st, st.String())
			return
		}
	}
	m.r.Jot("plan.commit", "", plan.Version, fmt.Sprintf("%d steps", len(plan.Steps)))
	m.mu.Lock()
	m.planCommits++
	m.mu.Unlock()
}

// execStep executes one plan step. Reserve and release failures are
// tolerable (the pool is rebuilt next tick); a migrate failure is the
// caller's signal to abort the plan.
func (c *Controller) execStep(m *managed, st placement.Step) bool {
	switch st.Kind {
	case placement.StepReserve:
		// Claim and record under m.mu, and stand down while a recovery or
		// a handoff is pending: reclaimSpares runs under the same lock, so
		// a reserve can never hide an idle phone from a recovery that has
		// already emptied the spare pool.
		m.mu.Lock()
		if m.recovering || m.migrating || !m.r.ClaimIdle(st.To) {
			m.mu.Unlock()
			return false
		}
		m.spares[st.To] = true
		warm := m.warmed[st.To]
		m.warmed[st.To] = true
		m.mu.Unlock()
		if !warm {
			// Warm the spare now: with operator code pre-shipped, a later
			// migration onto it skips the cellular code transfer entirely.
			c.shipCode(st.To)
		}
		return true
	case placement.StepRelease:
		m.mu.Lock()
		held := m.spares[st.To]
		delete(m.spares, st.To)
		m.mu.Unlock()
		if held {
			m.r.ReleaseToIdle(st.To)
		}
		return held
	case placement.StepMigrate:
		m.mu.Lock()
		preclaimed := m.spares[st.To]
		delete(m.spares, st.To)
		m.mu.Unlock()
		// The cooldown is charged here, not at plan time: steps the plan
		// never reaches (it aborts at the first failed migrate) must stay
		// plannable on the next tick.
		c.cfg.Planner.Attempted(m.r.ID(), st.Slot, c.clk.Now())
		return c.migrateTo(m, st, preclaimed)
	default:
		return false
	}
}

// reclaimSpares returns every warm spare the planner holds to the region's
// idle pool. Reactive recovery and departure handoffs draw replacements
// from that pool (TakeIdle/IdleCount) and would otherwise not see a phone
// the plan reserved — with one idle phone, that is the only replacement
// there is. The spares keep their pre-shipped code; the next plan reserves
// whatever the recovery left over.
func (c *Controller) reclaimSpares(m *managed) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]simnet.NodeID, 0, len(m.spares))
	for id := range m.spares {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		delete(m.spares, id)
		m.r.ReleaseToIdle(id)
	}
}

// PlanStats reports how many placement plans a region committed and
// aborted.
func (c *Controller) PlanStats(regionID string) (committed, aborted int) {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planCommits, m.planAborts
}
