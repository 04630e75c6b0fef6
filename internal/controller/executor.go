package controller

import (
	"fmt"
	"slices"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/node"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// execLoop is the region's executor, the one goroutine that changes its
// placement: it runs queued jobs (recoveries, departure handoffs, manual
// migrations) one after another and, when the adaptive loop is on, a
// placement plan every scheduleTick and an elastic split or merge every
// elasticTick for the region's keyed groups with dormant headroom. Serial
// execution is the interlock: no two actions ever move a slot at once.
func (c *Controller) execLoop(m *managed) {
	defer c.wg.Done()
	var placeT, growT clock.Timer
	var place, grow <-chan time.Duration
	if c.cfg.Adaptive {
		placeT = c.clk.NewTimer(scheduleTick)
		defer placeT.Stop()
		place = placeT.C()
		if len(elasticGroups(m.r.Graph())) > 0 {
			growT = c.clk.NewTimer(elasticTick)
			defer growT.Stop()
			grow = growT.C()
		}
	}
	for {
		select {
		case job := <-m.jobs:
			c.execute(m, job)
		case <-place:
			c.execute(m, func() { c.placementTick(m) })
			placeT.Reset(scheduleTick)
		case <-grow:
			c.execute(m, func() { c.elasticTick(m) })
			growT.Reset(elasticTick)
		case <-c.stopCh:
			return
		}
	}
}

// enqueue queues a job for the region's executor. The queue holds at most
// one recovery, one handoff per slot host and one job per Migrate caller
// (each waits for its answer), far below the channel's capacity, so the
// executor itself may enqueue without blocking.
func (c *Controller) enqueue(m *managed, job func()) {
	select {
	case m.jobs <- job:
	case <-c.stopCh:
	}
}

// execute runs one job with the executing bit set.
func (c *Controller) execute(m *managed, job func()) {
	m.mu.Lock()
	m.executing = true
	m.mu.Unlock()
	job()
	m.mu.Lock()
	m.executing = false
	m.mu.Unlock()
}

// transferable reports whether a live transfer may start: the region is
// alive and no checkpoint round is collecting reports (a token sent to a
// slot mid-transfer is never answered). No round starts during a job.
func (m *managed) transferable() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.dead && m.pendingVer == 0
}

// placementTick runs the engine's plan for a fresh snapshot, less the
// migrate steps whose slot is inside its cooldown, unless the region is
// dead or mid-checkpoint (the snapshot differentiates drain rates across
// calls, so only ticks that plan take one).
func (c *Controller) placementTick(m *managed) {
	if !m.transferable() {
		return
	}
	snap := m.r.PlacementSnapshot(m.spares)
	c.runPlan(m, m.cool.hold(c.engine.Plan(snap), snap.Now))
}

// critical step kinds place a slot or its keys: the steps after them
// depend on it.
var critical = map[placement.StepKind]bool{
	placement.StepMigrate: true, placement.StepActivate: true, placement.StepPromote: true, placement.StepHandoff: true,
	placement.StepSplit: true, placement.StepMerge: true,
}

// runPlan executes a plan's steps in order and journals its lifecycle:
// plan.propose, plan.step per step with its outcome, then plan.commit — or
// plan.abort at a failed critical step, on Stop, when the region dies, and
// for the engine's placement plans when a job is queued behind them (the
// next tick replans). It returns the step it aborted at. The engine's
// empty plans are not journaled; an empty recovery or handoff plan is, as
// its cause says what was decided.
func (c *Controller) runPlan(m *managed, plan *placement.Plan) (placement.Step, bool) {
	n := len(plan.Steps)
	engine := plan.Cause == ""
	if n == 0 && engine {
		return placement.Step{}, true
	}
	count := func(n *int) { // the engine's plan outcomes, for PlanStats
		if engine {
			m.mu.Lock()
			*n++
			m.mu.Unlock()
		}
	}
	summary := fmt.Sprintf("%d steps", n)
	if !engine {
		summary += " " + plan.Cause
	}
	m.r.Jot("plan.propose", "", plan.Version, summary)
	for i, st := range plan.Steps {
		why := ""
		switch {
		case c.stopped():
			why = "controller stopping"
		case m.isDead():
			why = "region dead"
		case engine && len(m.jobs) > 0:
			why = "yielding to queued work"
		default:
			ok, said := c.execStep(m, st)
			detail := fmt.Sprintf("%d/%d ok=%v %s", i+1, n, ok, st)
			if said != "" {
				detail += ": " + said
			}
			m.r.Jot("plan.step", st.Slot, plan.Version, detail)
			if ok || !critical[st.Kind] {
				continue
			}
			why = st.String()
		}
		m.r.Jot("plan.abort", st.Slot, plan.Version, why)
		count(&m.planAborts)
		return st, false
	}
	m.r.Jot("plan.commit", "", plan.Version, summary)
	count(&m.planCommits)
	return placement.Step{}, true
}

// execStep executes one plan step and reports whether it succeeded, and
// when a node said why it did not, what the node said.
func (c *Controller) execStep(m *managed, st placement.Step) (bool, string) {
	switch st.Kind {
	case placement.StepReserve:
		if !m.r.ClaimIdle(st.To) {
			return false, ""
		}
		m.spares[st.To] = true
		// Warm the spare now: a later migration onto it skips the
		// cellular code transfer entirely.
		c.warm(m, st.To)
		return true, ""
	case placement.StepRelease:
		held := m.spares[st.To]
		delete(m.spares, st.To)
		if held {
			m.r.ReleaseToIdle(st.To)
		}
		return held, ""
	case placement.StepMigrate, placement.StepHandoff:
		if st.Kind == placement.StepMigrate {
			// The cooldown is charged here, not at plan time: steps the
			// plan never reaches must stay plannable on the next tick.
			m.cool[st.Slot] = c.clk.Now()
		}
		return c.moveSlot(m, st)
	case placement.StepSplit, placement.StepMerge:
		gs, ok := m.r.Graph().KeyedGroup(st.Group)
		if !ok {
			return false, ""
		}
		now := c.clk.Now()
		m.cool[gs.Slots[st.Donor]], m.cool[gs.Slots[st.Recipient]] = now, now
		if st.Kind == placement.StepSplit {
			return m.r.SplitInstance(st.Group, st.Donor, st.Recipient) == nil, ""
		}
		return m.r.MergeKeyRange(st.Group, st.Donor, st.Recipient) == nil, ""
	case placement.StepActivate:
		if !m.r.ClaimIdle(st.To) {
			return false, ""
		}
		c.warm(m, st.To)
		m.r.ActivateReplacement(st.To, st.Slot)
		return true, ""
	case placement.StepPause, placement.StepResume:
		// Resume waits long per phone: moving on upstream while a
		// consumer's resume is in flight lets replay hit a closed path.
		cmd, timeout := node.Command{Op: node.CmdPause}, 10*time.Second
		if st.Kind == placement.StepResume {
			cmd, timeout = node.Command{Op: node.CmdResume}, 120*time.Second
		}
		ok := true
		for _, id := range st.Phones {
			ok = c.request(id, cmd, timeout) && ok
		}
		return ok, ""
	case placement.StepRestore:
		return c.awaitRestored(m, st.Phones, st.Version, 30*time.Second, func() {
			for _, id := range st.Phones {
				c.send(id, node.Command{Op: node.CmdRestore, Version: st.Version})
			}
		})
	case placement.StepFetchRestore:
		c.send(st.To, node.Command{Op: node.CmdFetchRestore, Version: st.Version, Target: st.From, Slot: st.Slot})
		return true, ""
	case placement.StepReplay:
		m.mu.Lock()
		m.epoch = st.Epoch
		m.mu.Unlock()
		for _, id := range st.Phones {
			c.send(id, node.Command{Op: node.CmdReplay, Version: st.Version, Epoch: st.Epoch})
		}
		return true, ""
	case placement.StepPromote:
		return m.r.PromoteStandby(st.Slot) != nil, ""
	case placement.StepKill:
		// The region stops and is bypassed (§III-D: its upstream and
		// downstream neighbours connect directly).
		m.mu.Lock()
		m.dead = true
		m.mu.Unlock()
		m.r.Stop()
		return true, ""
	case placement.StepUnregister:
		m.r.Unregister(st.From)
		return true, ""
	}
	return false, ""
}

// warm ships operator code to a phone that has none yet.
func (c *Controller) warm(m *managed, id simnet.NodeID) {
	if !m.warmed[id] {
		m.warmed[id] = true
		c.shipCode(id)
	}
}

// awaitRestored discards stale restore reports, runs order, then waits
// until every phone has reported restoring version v. It reports false
// when the timeout or Stop comes first, and false with the node's error at
// the first report of v that carries one.
func (c *Controller) awaitRestored(m *managed, ids []simnet.NodeID, v uint64, timeout time.Duration, order func()) (bool, string) {
	for len(m.restored) > 0 {
		<-m.restored
	}
	order()
	left := slices.Clone(ids)
	t := c.clk.NewTimer(timeout)
	defer t.Stop()
	for len(left) > 0 {
		select {
		case rep := <-m.restored:
			if rep.Version != v {
				continue
			}
			if rep.Err != "" {
				return false, rep.Err
			}
			left = slices.DeleteFunc(left, func(id simnet.NodeID) bool { return id == rep.Phone })
		case <-t.C():
			return false, ""
		case <-c.stopCh:
			return false, ""
		}
	}
	return true, ""
}

// moveSlot executes one live transfer of st.Slot from st.From to st.To: a
// planned migration (CmdMigrate over WiFi) or a departure handoff
// (CmdHandoff, over cellular). It claims the target unless it is a warm
// spare, ships code unless the target has it, orders the transfer, awaits
// the restore report, then repoints placement; the vacated host relays
// stragglers until senders see the new placement.
func (c *Controller) moveSlot(m *managed, st placement.Step) (bool, string) {
	if cur, ok := m.r.Placement(st.Slot); !ok || cur != st.From {
		return false, "" // placement changed under the plan
	}
	preclaimed := m.spares[st.To]
	if !preclaimed && !m.r.ClaimIdle(st.To) {
		return false, ""
	}
	delete(m.spares, st.To)
	op, timeout := node.CmdMigrate, 60*time.Second
	if st.Kind == placement.StepHandoff { // over cellular: slower
		op, timeout = node.CmdHandoff, 120*time.Second
	}
	c.warm(m, st.To)
	restored, said := c.awaitRestored(m, []simnet.NodeID{st.To}, node.TransferVersion, timeout, func() {
		c.send(st.From, node.Command{Op: op, Target: st.To, Slot: st.Slot})
	})
	if !restored {
		// The target reported no install (said is its refusal, "" no
		// report at all): inspect where the state ended up before
		// touching placement, or traffic may blackhole or strand.
		hosts := func(id simnet.NodeID) bool {
			n := m.r.Node(id)
			return n != nil && n.Slot() == st.Slot
		}
		switch {
		case said == "" && hosts(st.To): // landed; only the report was lost
			m.r.SetPlacement(st.Slot, st.To)
		case hosts(st.From): // never started: the target goes back to its pool
			if preclaimed {
				m.spares[st.To] = true
			} else {
				m.r.ReleaseToIdle(st.To)
			}
		default: // lost in flight or refused: recovery rebuilds the dark slot
			m.r.SetPlacement(st.Slot, st.To)
			c.noteFailure(m, st.To)
		}
		return false, said
	}
	m.r.SetPlacement(st.Slot, st.To)
	if st.Kind == placement.StepHandoff {
		return true, ""
	}
	// A manual migration returns the healthy source to the idle pool once
	// it hosts nothing; planned sources are dying or leaving.
	if st.Reason == "manual" && len(m.r.SlotsOn(st.From)) == 0 {
		m.r.ReleaseToIdle(st.From)
	}
	m.r.NoteMigration()
	m.mu.Lock()
	m.migrations++
	m.mu.Unlock()
	return true, ""
}

// Migrate moves slot onto the idle phone `to` (tests and tooling; the
// planner drives the same path). It runs as a one-step plan on the
// region's executor, so only after Start, and reports whether it
// committed; after Stop, false. Unlike departure handoffs it works under
// every scheme.
func (c *Controller) Migrate(regionID, slot string, to simnet.NodeID) bool {
	m := c.lookup(regionID)
	if m == nil || m.isDead() {
		return false
	}
	from, ok := m.r.Placement(slot)
	if !ok {
		return false
	}
	done := make(chan bool, 1)
	c.enqueue(m, func() {
		ok := m.transferable()
		if ok {
			_, ok = c.runPlan(m, &placement.Plan{Region: regionID, Cause: "manual", Steps: []placement.Step{
				{Kind: placement.StepMigrate, Slot: slot, From: from, To: to, Reason: "manual"},
			}})
		}
		done <- ok
	})
	select {
	case ok := <-done:
		return ok
	case <-c.stopCh:
		return false
	}
}

// Migrations reports how many planned migrations a region has completed.
func (c *Controller) Migrations(regionID string) int {
	return read(c, regionID, func(m *managed) int { return m.migrations })
}

// PlanStats reports how many placement plans a region committed and
// aborted.
func (c *Controller) PlanStats(regionID string) (committed, aborted int) {
	stats := read(c, regionID, func(m *managed) [2]int { return [2]int{m.planCommits, m.planAborts} })
	return stats[0], stats[1]
}
