package controller

import (
	"time"

	"mobistreams/internal/node"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// scheduleLoop runs the adaptive placement ticks for one region: poll
// telemetry, let the planner plan, and execute the plan's steps
// sequentially. Planning is skipped while the region is recovering or
// mid-checkpoint — a migration in either window would race the very
// machinery it exists to spare. Telemetry is polled only on ticks that
// plan: Telemetry() differentiates drain and tuple rates across polls, so
// an extra poll during a busy window would perturb the planner's drain
// forecasts.
func (c *Controller) scheduleLoop(m *managed) {
	defer c.wg.Done()
	t := c.clk.NewTimer(c.cfg.ScheduleTick)
	defer t.Stop()
	for ; ; t.Reset(c.cfg.ScheduleTick) {
		select {
		case <-t.C():
			if m.isDead() {
				return
			}
			m.mu.Lock()
			busy := m.recovering || m.pendingVer != 0
			m.mu.Unlock()
			if busy {
				continue
			}
			c.runPlan(m, m.r.Telemetry())
		case <-c.stopCh:
			return
		}
	}
}

// returnTarget hands an unused migration target back: a pre-claimed warm
// spare returns to the spare pool (still claimed, still warm), an
// ad-hoc-claimed idle goes back to the region's idle list. While a
// recovery or a handoff is pending the spare goes to the idle list too —
// reclaimSpares may already have run, and a spare re-held after it would
// be invisible to the recovery that needs it.
func (c *Controller) returnTarget(m *managed, to simnet.NodeID, preclaimed bool) {
	m.mu.Lock()
	hold := preclaimed && !m.recovering && !m.migrating
	if hold {
		m.spares[to] = true
	}
	m.mu.Unlock()
	if !hold {
		m.r.ReleaseToIdle(to)
	}
}

// migrateTo executes one planned live migration: claim the target out of
// the idle pool, ship operator code, order the at-risk host to transfer its
// slot over WiFi (CmdMigrate), await the replacement's restore report, then
// atomically repoint placement. In-flight batches drain to the new home
// through the existing resolver-per-retry delivery path, and the vacated
// host relays stragglers until senders observe the new placement. When
// preclaimed, the target is a warm spare the planner already holds (no
// ClaimIdle) whose operator code may already be aboard (no code ship).
func (c *Controller) migrateTo(m *managed, mig placement.Step, preclaimed bool) bool {
	if cur, ok := m.r.Placement(mig.Slot); !ok || cur != mig.From {
		if preclaimed {
			c.returnTarget(m, mig.To, true)
		}
		return false // placement changed under the plan (recovery won a race)
	}
	if !preclaimed && !m.r.ClaimIdle(mig.To) {
		return false
	}
	m.mu.Lock()
	if m.recovering || m.dead || m.pendingVer != 0 || m.migrating {
		// A recovery or checkpoint round started between the plan and
		// now; stand down and return the claimed target untouched.
		m.mu.Unlock()
		c.returnTarget(m, mig.To, preclaimed)
		return false
	}
	m.migrating = true
	delete(m.restored, mig.To)
	warm := m.warmed[mig.To]
	m.warmed[mig.To] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.migrating = false
		m.mu.Unlock()
	}()

	c.logf("controller: migrating %s off %s to %s (%s)", mig.Slot, mig.From, mig.To, mig.Reason)
	if !warm {
		c.shipCode(mig.To)
	}
	c.send(mig.From, node.Command{Op: node.CmdMigrate, Target: mig.To, Slot: mig.Slot})
	if !c.awaitTransfer(m, mig.To, 60*time.Second) {
		// The restore report never arrived. Inspect where the slot's
		// state actually ended up before touching placement: the wrong
		// guess either blackholes traffic into a never-activated idle
		// node or strands the slot on a vacated source.
		hosts := func(id simnet.NodeID) bool {
			n := m.r.Node(id)
			return n != nil && n.Slot() == mig.Slot
		}
		switch {
		case hosts(mig.To):
			// Transfer landed; only the report was lost. Repoint.
			c.logf("controller: migration of %s to %s landed but went unreported; repointing", mig.Slot, mig.To)
			m.r.SetPlacement(mig.Slot, mig.To)
		case hosts(mig.From):
			// CmdMigrate never took effect (lost command, source died
			// first): nothing moved, return the target to the pool.
			c.logf("controller: migration of %s to %s never started", mig.Slot, mig.To)
			c.returnTarget(m, mig.To, preclaimed)
		default:
			// The source vacated but the state never installed at the
			// target: the slot is dark. Point placement at the target
			// and report it failed so reactive recovery rebuilds the
			// slot from the last checkpoint.
			c.logf("controller: migration of %s to %s lost the state in flight; invoking recovery", mig.Slot, mig.To)
			m.r.SetPlacement(mig.Slot, mig.To)
			c.noteFailure(m, mig.To)
		}
		return false
	}
	m.r.SetPlacement(mig.Slot, mig.To)
	// A manual migration of a healthy phone returns the evacuated source
	// to the idle pool once it hosts nothing; scheduler-planned sources
	// were evacuated *because* they are dying or leaving, and must never
	// be handed out as replacements.
	if mig.Reason == "manual" && len(m.r.SlotsOn(mig.From)) == 0 {
		m.r.ReleaseToIdle(mig.From)
	}
	m.r.NoteMigration()
	m.mu.Lock()
	m.migrations++
	m.mu.Unlock()
	return true
}

// Migrate executes one planned live migration immediately: move slot onto
// the idle phone `to` (tests and operational tooling; the planner drives
// the same path periodically). Unlike departure handoffs it works under
// every scheme — proactive migration is precisely what gives the prior
// schemes a mobility story they lack reactively.
func (c *Controller) Migrate(regionID, slot string, to simnet.NodeID) bool {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil || m.isDead() {
		return false
	}
	from, ok := m.r.Placement(slot)
	if !ok {
		return false
	}
	return c.migrateTo(m, placement.Step{Kind: placement.StepMigrate, Slot: slot, From: from, To: to, Reason: "manual"}, false)
}

// Migrations reports how many planned migrations a region has completed.
func (c *Controller) Migrations(regionID string) int {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations
}
