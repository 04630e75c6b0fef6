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

// execLoop is the region's one control loop, the executor: one after
// another it runs queued jobs (recoveries, handoffs, migrations, triggered
// checkpoints), the periodic checkpoint and ping rounds and, with the
// adaptive loop on, a placement plan every scheduleTick and an elastic
// split or merge every elasticTick. Serial execution is the interlock: no
// two actions move a slot at once, and no round starts during one; a round
// that fell due while a job ran is skipped. A ping round's deadline is
// judged between jobs.
func (c *Controller) execLoop(m *managed) {
	defer c.wg.Done()
	var ckptT, placeT, growT clock.Timer
	var ckpt, place, grow <-chan time.Duration
	if m.r.Scheme().Checkpoints() {
		ckptT = c.clk.NewTimer(c.cfg.CheckpointPeriod)
		defer ckptT.Stop()
		ckpt = ckptT.C()
	}
	pingT := c.clk.NewTimer(c.cfg.PingInterval)
	defer pingT.Stop()
	dueT := c.clk.NewTimer(c.cfg.PingTimeout) // armed while a ping round is out
	dueT.Stop()
	defer dueT.Stop()
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
	var round []pinged
	var replies chan simnet.Message // the ping round's, nil when none is out
	var idle time.Duration          // when the last job ended
	for {
		select {
		case job := <-m.jobs:
			job()
			idle = c.clk.Now()
		case at := <-ckpt:
			late := c.clk.Now() - at
			if at >= idle {
				c.startCheckpoint(m) // none for a dead region
			}
			ckptT.Reset(rearm(c.cfg.CheckpointPeriod, late))
		case at := <-pingT.C():
			late := c.clk.Now() - at
			if at >= idle && replies == nil && !m.isDead() {
				round, replies = c.startPings(m, round[:0])
				dueT.Reset(c.cfg.PingTimeout)
			}
			pingT.Reset(rearm(c.cfg.PingInterval, late))
		case <-dueT.C():
			c.judgePings(m, round, replies)
			replies = nil
		case <-place:
			c.placementTick(m)
			idle = c.clk.Now()
			placeT.Reset(scheduleTick)
		case at := <-grow:
			// The poll waits for its answers: re-armed on its own grid,
			// it still reads every elasticTick.
			c.elasticTick(m)
			idle = c.clk.Now()
			growT.Reset(rearm(elasticTick, idle-at))
		case <-c.stopCh:
			return
		}
	}
}

// rearm is the wait after a round whose tick the executor reached late:
// one period after the round as if it began on time (the other round may
// have run first), or the next period boundary after a job.
func rearm(period, late time.Duration) time.Duration { return period - late%period }

// enqueue queues a job for the region's executor. The queue holds at most
// one recovery, one handoff per slot host and one job per Migrate or
// TriggerCheckpoint caller (each waits for its answer), far below the
// channel's capacity, so the executor itself may enqueue without blocking.
func (c *Controller) enqueue(m *managed, job func()) {
	select {
	case m.jobs <- job:
	case <-c.stopCh:
	}
}

// call runs f as a job on a region's executor and returns its result, or
// zero for an unknown region or after Stop.
func call[T any](c *Controller, regionID string, f func(*managed) T) T {
	var zero T
	m := c.lookup(regionID)
	if m == nil {
		return zero
	}
	done := make(chan T, 1)
	c.enqueue(m, func() { done <- f(m) })
	select {
	case v := <-done:
		return v
	case <-c.stopCh:
		return zero
	}
}

// transferable reports whether a live transfer may start: the region is
// alive and no checkpoint round is collecting reports (a token sent to a
// slot mid-transfer is never answered).
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
	m.mu.Lock()
	idle := slices.Clone(m.idleLocked())
	m.mu.Unlock()
	snap := m.r.PlacementSnapshot(m.assignments(), idle, m.spares)
	c.runPlan(m, m.cool.hold(c.engine.Plan(snap), snap.Now))
}

// critical step kinds place a slot or its keys: the steps after them
// depend on it.
var critical = map[placement.StepKind]bool{
	placement.StepMigrate: true, placement.StepActivate: true, placement.StepPromote: true, placement.StepHandoff: true,
	placement.StepFetchRestore: true, placement.StepSplit: true, placement.StepMerge: true,
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
		if !m.claim(st.To) {
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
			m.release(st.To)
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
		return c.moveKeys(m, st)
	case placement.StepActivate:
		if !m.claim(st.To) {
			return false, ""
		}
		c.warm(m, st.To)
		// A replacement that failed unnoticed does not answer: the step
		// fails and the recovery replans without it.
		if !c.ask([]simnet.NodeID{st.To}, node.Command{Op: node.CmdActivate, Slot: st.Slot}, c.cfg.PingTimeout) {
			return false, ""
		}
		m.r.Jot("replace.activate", st.Slot, 0, string(st.To))
		c.place(m, st.Slot, st.To)
		return true, ""
	case placement.StepPause:
		return c.ask(st.Phones, node.Command{Op: node.CmdPause}, 10*time.Second), ""
	case placement.StepResume:
		// Downstream first, each phone waited for: moving on upstream while
		// a consumer's resume is in flight lets replay hit a closed path.
		ok := true
		for _, id := range st.Phones {
			ok = c.ask([]simnet.NodeID{id}, node.Command{Op: node.CmdResume}, 120*time.Second) && ok
		}
		return ok, ""
	case placement.StepRestore:
		return c.awaitRestored(m, st.Phones, st.Version, 30*time.Second, node.Command{Op: node.CmdRestore, Version: st.Version}, st.Phones...)
	case placement.StepFetchRestore:
		// The holders in turn: the replacement reports at once that a
		// holder which failed unnoticed cannot serve. A silent replacement
		// is not asked again.
		ok, said := false, ""
		for _, from := range st.Phones {
			cmd := node.Command{Op: node.CmdFetchRestore, Version: st.Version, Target: from, Slot: st.Slot}
			// 90 s outlasts the replacement's pause bound and 60 s blob wait.
			if ok, said = c.awaitRestored(m, []simnet.NodeID{st.To}, st.Version, 90*time.Second, cmd, st.To); ok || said == "" {
				break
			}
		}
		return ok, said
	case placement.StepReplay:
		m.epoch = st.Epoch
		c.fanOut(st.Phones, nil, node.Command{Op: node.CmdReplay, Version: st.Version, Epoch: st.Epoch})
		return true, ""
	case placement.StepPromote:
		s, _ := m.r.Graph().SlotID(st.Slot)
		m.mu.Lock()
		sid := m.routes.Standby[s]
		m.mu.Unlock()
		if sid == "" || !c.ask([]simnet.NodeID{sid}, node.Command{Op: node.CmdPromote}, c.cfg.PingTimeout) {
			return false, ""
		}
		c.place(m, st.Slot, sid)
		return true, ""
	case placement.StepKill:
		// The region stops and is bypassed (§III-D: its upstream and
		// downstream neighbours connect directly). Its nodes stop after
		// the operator or blob send in hand, seconds of simulated time
		// that the executor does not wait out; Stop waits for them.
		m.mu.Lock()
		m.dead = true
		m.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			m.r.Stop()
		}()
		return true, ""
	case placement.StepUnregister:
		m.unregister(st.From)
		return true, ""
	}
	return false, ""
}

// place points slot's primary at id in the record (when id was the
// slot's standby, the slot has none after) and installs the new table:
// one fan-out of one boxed command to every member and every endpoint the
// table names, less the phones noted failed. Senders parked on their old
// table deliver on it.
func (c *Controller) place(m *managed, slot string, id simnet.NodeID) {
	s, _ := m.r.Graph().SlotID(slot)
	m.mu.Lock()
	t := &node.Routes{Version: m.routes.Version + 1,
		Primary: slices.Clone(m.routes.Primary), Standby: slices.Clone(m.routes.Standby)}
	t.Primary[s] = id
	if t.Standby[s] == id {
		t.Standby[s] = ""
	}
	m.routes = t
	to := m.r.Members()
	for _, ids := range [][]simnet.NodeID{t.Primary, t.Standby} {
		for _, ep := range ids {
			if ep != "" && !slices.Contains(to, ep) {
				to = append(to, ep)
			}
		}
	}
	to = slices.DeleteFunc(to, m.noted)
	m.mu.Unlock()
	m.r.Jot("place.set", slot, t.Version, string(id))
	c.fanOut(to, nil, node.Command{Op: node.CmdRoutes, Routes: t})
}

// host returns the endpoint hosting slot's primary in the record.
func (m *managed) host(slot string) (simnet.NodeID, bool) {
	s, ok := m.r.Graph().SlotID(slot)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !ok || m.routes.Primary[s] == "" {
		return "", false
	}
	return m.routes.Primary[s], true
}

// hosting reports whether id hosts a slot's primary in the record.
func (m *managed) hosting(id simnet.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Contains(m.routes.Primary, id)
}

// assignments lists the record's slot→primary assignment, by slot.
func (m *managed) assignments() []placement.Assignment {
	g := m.r.Graph()
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []placement.Assignment
	for _, slot := range g.Slots() {
		if s, _ := g.SlotID(slot); m.routes.Primary[s] != "" {
			out = append(out, placement.Assignment{Slot: slot, Phone: m.routes.Primary[s]})
		}
	}
	return out
}

// idleLocked returns the idle pool, first adding the members the record
// has not seen: phones recruited since. Caller holds m.mu.
func (m *managed) idleLocked() []simnet.NodeID {
	for _, id := range m.r.Members() {
		if !m.known[id] {
			m.known[id] = true
			m.idle = append(m.idle, id)
		}
	}
	return m.idle
}

// claim takes id out of the idle pool, false when it is not in it. A
// phone that failed unnoticed is claimed: the step that uses it finds
// out, as its command goes unanswered.
func (m *managed) claim(id simnet.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.Index(m.idleLocked(), id)
	if i >= 0 {
		m.idle = slices.Delete(m.idle, i, i+1)
	}
	return i >= 0
}

// release returns id to the idle pool (an abandoned migration target, a
// spare let go, a healthy phone a manual migration vacated).
func (m *managed) release(id simnet.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Contains(m.idleLocked(), id) {
		m.idle = append(m.idle, id)
	}
}

// unregister removes a departed phone from the region and the idle pool.
func (m *managed) unregister(id simnet.NodeID) {
	m.r.Unregister(id)
	m.mu.Lock()
	m.idle = slices.DeleteFunc(m.idle, func(cand simnet.NodeID) bool { return cand == id })
	m.mu.Unlock()
}

// warm ships operator code to a phone that has none yet (§III-A).
func (c *Controller) warm(m *managed, id simnet.NodeID) {
	if !m.warmed[id] {
		m.warmed[id] = true
		c.cfg.Cell.Send(selfID, id, simnet.ClassCode, codeBytes, nil)
	}
}

// awaitRestored discards stale restore reports, sends cmd to the phones
// to, then waits until every phone in ids has reported restoring version
// v. It reports false when the timeout or Stop comes first, and false with
// the node's error at the first report of v that carries one.
func (c *Controller) awaitRestored(m *managed, ids []simnet.NodeID, v uint64, timeout time.Duration, cmd node.Command, to ...simnet.NodeID) (bool, string) {
	for len(m.restored) > 0 {
		<-m.restored
	}
	c.fanOut(to, nil, cmd)
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

// moveSlot executes one live transfer of st.Slot from st.From to st.To
// with one CmdHandoff: a planned migration or a departure handoff (the
// source ships over the region WiFi, and over cellular once it has left
// it, which is slower). It claims the target unless it is a warm
// spare, ships code unless the target has it, orders the transfer, awaits
// the restore report, then repoints placement and installs the new route
// table; the vacated host relays stragglers until senders have it.
func (c *Controller) moveSlot(m *managed, st placement.Step) (bool, string) {
	if cur, ok := m.host(st.Slot); !ok || cur != st.From {
		return false, "" // placement changed under the plan
	}
	preclaimed := m.spares[st.To]
	if !preclaimed && !m.claim(st.To) {
		return false, ""
	}
	delete(m.spares, st.To)
	timeout := 60 * time.Second
	if st.Kind == placement.StepHandoff { // over cellular: slower
		timeout = 120 * time.Second
	}
	c.warm(m, st.To)
	restored, said := c.awaitRestored(m, []simnet.NodeID{st.To}, node.TransferVersion, timeout, node.Command{Op: node.CmdHandoff, Target: st.To, Slot: st.Slot}, st.From)
	if !restored {
		// The target reported no install: said is its refusal (the source
		// vacated the slot before it shipped the state), "" no report at
		// all. Then ask where the state ended up (only the slot's host
		// answers a ping that carries it) before touching placement, or
		// traffic may blackhole or strand.
		ping := node.Command{Op: node.CmdPing, Slot: st.Slot}
		switch {
		case said == "" && c.ask([]simnet.NodeID{st.To}, ping, c.cfg.PingTimeout): // landed; only the report was lost
			c.place(m, st.Slot, st.To)
		case said == "" && c.ask([]simnet.NodeID{st.From}, ping, c.cfg.PingTimeout): // never started: the target goes back to its pool
			if preclaimed {
				m.spares[st.To] = true
			} else {
				m.release(st.To)
			}
		case c.stopped(): // Stop cut the question short: placement stays
		default: // lost in flight or refused: recovery rebuilds the dark slot
			c.place(m, st.Slot, st.To)
			c.noteFailure(m, st.To)
		}
		return false, said
	}
	c.place(m, st.Slot, st.To)
	if st.Kind == placement.StepHandoff {
		return true, ""
	}
	// A manual migration returns the healthy source to the idle pool once
	// it hosts nothing; planned sources are dying or leaving.
	if st.Reason == "manual" && !m.hosting(st.From) {
		m.release(st.From)
	}
	m.r.NoteMigration()
	m.mu.Lock()
	m.migrations++
	m.mu.Unlock()
	return true, ""
}

// moveKeys executes a split or merge step with one command to the donor
// instance's host, naming the recipient instance's slot and host; the
// donor runs the step and answers with why it failed. Both slots are
// charged to the cooldown ledger.
func (c *Controller) moveKeys(m *managed, st placement.Step) (bool, string) {
	gs, ok := m.r.Graph().KeyedGroup(st.Group)
	if !ok {
		return false, ""
	}
	donor, recip := gs.Slots[st.Donor], gs.Slots[st.Recipient]
	now := c.clk.Now()
	m.cool[donor], m.cool[recip] = now, now
	from, _ := m.host(donor)
	to, _ := m.host(recip)
	op := node.CmdSplit
	if st.Kind == placement.StepMerge {
		op = node.CmdMerge
	}
	// 90 s outlasts the donor's pause bound and its 60 s wait for the
	// recipient's answer.
	a, ok := c.answers([]simnet.NodeID{from}, 90*time.Second, node.Command{Op: op, Target: to, Slot: recip})[from]
	return ok && a.Err == "", a.Err
}

// Migrate moves slot onto the idle phone `to` (tests and tooling; the
// planner drives the same path). It runs as a one-step plan on the
// region's executor, so only after Start, and reports whether it
// committed; after Stop, or when dead, false. Unlike departure handoffs
// it works under every scheme.
func (c *Controller) Migrate(regionID, slot string, to simnet.NodeID) bool {
	return call(c, regionID, func(m *managed) bool {
		from, ok := m.host(slot)
		if !ok || !m.transferable() {
			return false
		}
		_, ok = c.runPlan(m, &placement.Plan{Region: regionID, Cause: "manual", Steps: []placement.Step{
			{Kind: placement.StepMigrate, Slot: slot, From: from, To: to, Reason: "manual"},
		}})
		return ok
	})
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
