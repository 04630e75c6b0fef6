package controller

import (
	"slices"

	"mobistreams/internal/node"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// reportLoop consumes node reports and drives commit and recovery logic.
func (c *Controller) reportLoop() {
	defer c.wg.Done()
	for {
		select {
		case msg := <-c.ep.Inbox():
			if rep, ok := msg.Payload.(node.Report); ok {
				c.handleReport(rep)
			}
		case <-c.stopCh:
			return
		}
	}
}

func (c *Controller) handleReport(rep node.Report) {
	m := c.regionFor(rep.Phone)
	if m == nil {
		return
	}
	switch rep.Type {
	case node.RepCheckpointed:
		c.onCheckpointProgress(m, rep, false)
	case node.RepPersisted:
		c.onCheckpointProgress(m, rep, true)
	case node.RepFailure:
		c.noteFailure(m, rep.Observed)
	case node.RepChronicBattery:
		c.noteFailure(m, rep.Phone)
	case node.RepRestored:
		select {
		case m.restored <- rep:
		default: // nobody is waiting on a report this old
		}
	case node.RepCatchUpDone:
		m.mu.Lock()
		m.catchUpDone[rep.Epoch]++
		m.mu.Unlock()
	}
}

// onCheckpointProgress tracks a version's per-slot progress; when every
// active slot has both checkpointed and persisted, the version commits and
// every phone is told to garbage-collect (§III-B: the region's checkpoint
// is complete when the sinks percolate tokens back — here, when the last
// slot's persistence lands).
func (c *Controller) onCheckpointProgress(m *managed, rep node.Report, persisted bool) {
	m.mu.Lock()
	if rep.Version != m.pendingVer || m.dead {
		m.mu.Unlock()
		return
	}
	bit := uint8(1)
	if persisted {
		bit = 2
		m.pendingHolders[rep.Slot] = rep.Holders
	}
	m.progress[rep.Slot] |= bit
	for _, s := range m.r.Graph().Slots() {
		if m.progress[s] != 3 {
			m.mu.Unlock()
			return
		}
	}
	v := m.pendingVer
	m.committed, m.holders, m.pendingVer = v, m.pendingHolders, 0
	// A phone that failed unnoticed refuses the send at once.
	to := slices.DeleteFunc(m.r.Members(), m.noted)
	m.mu.Unlock()
	c.fanOut(to, nil, node.Command{Op: node.CmdCommit, Version: v})
}

// noteFailure registers a suspected phone failure. The first failure of a
// batch queues a recovery; the executor waits out the debounce window from
// the moment it was noted, so simultaneous failures recover as one batch
// (§III-D: burst failures are the norm on phones).
func (c *Controller) noteFailure(m *managed, phoneID simnet.NodeID) {
	if phoneID == "" {
		return
	}
	m.mu.Lock()
	if m.dead || m.noted(phoneID) {
		m.mu.Unlock()
		return
	}
	m.failedSeen[phoneID] = m.committed
	first := len(m.pendingFail) == 0
	if first {
		m.failSince = c.clk.Now()
	}
	m.pendingFail = append(m.pendingFail, phoneID)
	m.mu.Unlock()
	if first {
		c.enqueue(m, func() { c.recoverPending(m) })
	}
}

// recoverPending is the executor's recovery job: void the checkpoint round
// in flight, add the slot hosts it cannot reach to the batch, wait out the
// debounce, then plan and run one recovery per batch until none is pending
// (failures noted meanwhile form the next batch, with no second debounce).
// A batch whose plan has steps counts as one recovery, however often a
// failed activate replans it.
func (c *Controller) recoverPending(m *managed) {
	m.mu.Lock()
	if m.dead || len(m.pendingFail) == 0 {
		m.mu.Unlock()
		return
	}
	m.pendingVer = 0 // a recovery voids the round in flight
	m.mu.Unlock()
	// A burst's other victims may have no live upstream to report them:
	// every slot host the ping cannot reach joins this batch. Silence is
	// left to the ping round's deadline, so the answers are not awaited.
	c.startPings(m, nil)
	m.mu.Lock()
	wait := m.failSince + c.cfg.DebounceWindow - c.clk.Now()
	m.mu.Unlock()
	t := c.clk.NewTimer(wait) // fires at once when the window is over
	select {
	case <-t.C():
	case <-c.stopCh:
		t.Stop()
		return
	}
	replan := false
	for !c.stopped() && !m.isDead() {
		m.mu.Lock()
		batch := m.pendingFail
		m.pendingFail = nil
		m.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		plan := recoveryPlan(c.snapshot(m, batch))
		if len(plan.Steps) > 0 && !replan {
			m.mu.Lock()
			m.recoveries++
			m.mu.Unlock()
		}
		st, ok := c.runPlan(m, plan)
		replan = !ok && st.Kind == placement.StepActivate
		switch {
		case ok || c.stopped() || m.isDead():
		case replan:
			// The replacement failed or left after the snapshot: plan the
			// batch again, from a snapshot that no longer offers it.
			m.mu.Lock()
			m.pendingFail = append(batch, m.pendingFail...)
			m.mu.Unlock()
		default: // no standby was promoted or no holder served: the slot has no state
			plan.Steps = []placement.Step{{Kind: placement.StepKill, Reason: st.Kind.String() + " " + st.Slot + " failed"}}
			c.runPlan(m, plan)
		}
	}
}

// snapshot reads what a recovery or handoff plan is decided from. Its
// view of failure is the controller's own: the phones it noted failed
// leave the idle pool and the holders, and those noted since the
// committed checkpoint count toward FailedTotal.
func (c *Controller) snapshot(m *managed, lost []simnet.NodeID) *snapshot {
	r := m.r
	s := &snapshot{
		Region:    r.ID(),
		Scheme:    r.Scheme(),
		Lost:      lost,
		Placement: make(map[string]simnet.NodeID),
		Sources:   r.Graph().SourceSlots(),
		Holders:   make(map[string][]simnet.NodeID),
	}
	for _, a := range m.assignments() {
		s.Placement[a.Slot] = a.Phone
	}
	g := r.Graph()
	ops, _ := g.TopoOrder() // graph.Build rejected cycles
	seen := make(map[string]bool)
	for _, op := range ops {
		if slot := g.SlotOf(op); !seen[slot] {
			seen[slot] = true
			s.Order = append(s.Order, slot)
		}
	}
	for id := range m.spares {
		s.Spares = append(s.Spares, id)
	}
	slices.Sort(s.Spares)
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Committed, s.Epoch = m.committed, m.epoch
	for _, v := range m.failedSeen {
		if v == m.committed {
			s.FailedTotal++
		}
	}
	s.Idle = slices.DeleteFunc(slices.Clone(m.idleLocked()), m.noted)
	for _, slot := range s.lostSlots() {
		s.Holders[slot] = slices.DeleteFunc(slices.Clone(m.holders[slot]), m.noted)
	}
	return s
}

// NotifyDeparture is the GPS feed (§III-E): the named phone has left its
// region. The executor plans and runs the handoff of its slots.
func (c *Controller) NotifyDeparture(regionID string, phoneID simnet.NodeID) {
	m := c.lookup(regionID)
	if m == nil || m.isDead() {
		return
	}
	m.mu.Lock()
	m.departures++
	m.mu.Unlock()
	if !m.hosting(phoneID) {
		m.unregister(phoneID)
		return
	}
	if !m.r.Scheme().HandlesDepartures() {
		// Prior schemes have no mobility story: the slot stays on the
		// departed phone in urgent mode for good (§IV-B runs departures
		// only on MobiStreams). Journal it once per region, not per
		// departure.
		m.noMobility.Do(func() { m.r.Jot("depart.no_mobility", "", 0, m.r.Scheme().String()) })
		return
	}
	c.enqueue(m, func() {
		if !m.isDead() {
			c.runPlan(m, handoffPlan(c.snapshot(m, []simnet.NodeID{phoneID})))
		}
	})
}

// Departures reports how many departures a region has processed.
func (c *Controller) Departures(regionID string) int {
	return read(c, regionID, func(m *managed) int { return m.departures })
}

// CatchUpCount reports how many sinks completed catch-up for an epoch.
func (c *Controller) CatchUpCount(regionID string, epoch uint64) int {
	return read(c, regionID, func(m *managed) int { return m.catchUpDone[epoch] })
}
