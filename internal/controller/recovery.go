package controller

import (
	"time"

	"mobistreams/internal/ft"
	"mobistreams/internal/node"
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
	case node.RepFailure, node.RepChronicBattery:
		observed := rep.Observed
		if rep.Type == node.RepChronicBattery {
			observed = rep.Phone
		}
		c.noteFailure(m, observed)
	case node.RepUrgent:
		c.logf("controller: urgent mode in %s for slot %s", m.r.ID(), rep.Slot)
	case node.RepRestored:
		m.mu.Lock()
		m.restored[rep.Phone] = rep.Version
		m.mu.Unlock()
		if rep.Err != "" {
			c.logf("controller: restore on %s failed: %s", rep.Phone, rep.Err)
		}
	case node.RepHandoffDone:
		m.mu.Lock()
		m.handoffDone[rep.Phone] = true
		m.mu.Unlock()
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
	if rep.Version != m.pendingVer || m.dead || m.recovering {
		m.mu.Unlock()
		return
	}
	if persisted {
		m.persisted[rep.Slot] = true
	} else {
		m.checkpointed[rep.Slot] = true
	}
	slots := m.r.ActiveSlots()
	done := true
	for _, s := range slots {
		if !m.checkpointed[s] || !m.persisted[s] {
			done = false
			break
		}
	}
	if !done {
		m.mu.Unlock()
		return
	}
	v := m.pendingVer
	m.committed = v
	m.pendingVer = 0
	m.mu.Unlock()

	for _, pid := range m.r.AlivePhones() {
		c.send(pid, node.Command{Op: node.CmdCommit, Version: v})
	}
	c.logf("controller: region %s committed v%d", m.r.ID(), v)
}

// noteFailure registers a suspected phone failure; a short debounce window
// batches simultaneous failures into a single recovery (§III-D: burst
// failures are the norm on phones).
func (c *Controller) noteFailure(m *managed, phoneID simnet.NodeID) {
	if phoneID == "" {
		return
	}
	m.mu.Lock()
	if m.dead || m.failedSeen[phoneID] {
		m.mu.Unlock()
		return
	}
	m.failedSeen[phoneID] = true
	m.pendingFail = append(m.pendingFail, phoneID)
	if m.recovering {
		m.mu.Unlock()
		return
	}
	m.recovering = true
	m.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.clk.Sleep(c.cfg.DebounceWindow)
		// A live migration in flight has a slot vacated at its source and
		// placement about to be repointed; recovering through that window
		// would pause/restore against a placement mid-change. Migrations
		// are bounded (transfer timeout), so wait them out. New migrations
		// cannot start: m.recovering is already set.
		for m.isMigrating() && !c.stopped() {
			c.clk.Sleep(500 * time.Millisecond)
		}
		for {
			m.mu.Lock()
			batch := m.pendingFail
			m.pendingFail = nil
			m.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			c.recover(m, batch)
		}
		m.mu.Lock()
		m.recovering = false
		m.mu.Unlock()
	}()
}

// recover replaces the failed phones and restores the region according to
// its scheme.
func (c *Controller) recover(m *managed, failed []simnet.NodeID) {
	scheme := m.r.Scheme()
	var failedSlots []string
	for _, pid := range failed {
		failedSlots = append(failedSlots, m.r.SlotsOn(pid)...)
	}
	if len(failedSlots) == 0 {
		// The reported phones host nothing (an idle phone died, or a
		// vacated migration source was reported): the stream is intact,
		// so a region-wide pause/restore would be pure disruption.
		c.logf("controller: %s: %d slotless phones reported failed; no recovery needed", m.r.ID(), len(failed))
		return
	}
	m.mu.Lock()
	m.recoveries++
	m.mu.Unlock()
	c.logf("controller: recovering %s: %d phones, slots %v", m.r.ID(), len(failed), failedSlots)
	c.reclaimSpares(m)

	switch scheme.Kind {
	case ft.MS:
		c.recoverMS(m, failedSlots)
	case ft.DistN:
		c.recoverDist(m, failedSlots, len(failed))
	case ft.Rep2:
		c.recoverRep2(m, failedSlots, len(failed))
	default:
		// base and local have no phone-replacement story.
		c.killRegion(m)
	}
}

// recoverMS is MobiStreams recovery (§III-D): replacements read the MRC
// from their own local storage, every node restores in parallel, sources
// replay preserved input, sinks suppress catch-up output.
func (c *Controller) recoverMS(m *managed, failedSlots []string) {
	if !m.r.Scheme().CanRecover(len(failedSlots), m.r.IdleCount()) {
		c.killRegion(m)
		return
	}
	m.mu.Lock()
	v := m.committed
	m.epoch++
	epoch := m.epoch
	m.restored = make(map[simnet.NodeID]uint64)
	m.mu.Unlock()

	for _, slot := range failedSlots {
		repl := m.r.TakeIdle()
		if repl == "" {
			c.killRegion(m)
			return
		}
		c.shipCode(repl)
		m.r.ActivateReplacement(repl, slot)
	}

	// Pause all active phones at tuple boundaries.
	phones := c.activePhones(m)
	for _, pid := range phones {
		c.request(pid, node.Command{Op: node.CmdPause}, 10*time.Second)
	}
	// Parallel restoration from local storage.
	for _, pid := range phones {
		c.send(pid, node.Command{Op: node.CmdRestore, Version: v})
	}
	c.awaitRestored(m, phones, 30*time.Second)
	// Catch-up: sources replay preserved input since the MRC.
	for _, slot := range m.r.Graph().SourceSlots() {
		if pid, ok := m.r.Placement(slot); ok {
			c.send(pid, node.Command{Op: node.CmdReplay, Version: v, Epoch: epoch})
		}
	}
	// Resume downstream-first, acknowledged: a restored node drops stream
	// arrivals until its resume, so every consumer must be open before
	// any upstream starts pushing replay traffic.
	c.resumeDownstreamFirst(m)
}

// resumeDownstreamFirst resumes the region sinks-first in reverse slot
// topological order, waiting for each node's acknowledgement before
// resuming its upstreams.
func (c *Controller) resumeDownstreamFirst(m *managed) {
	g := m.r.Graph()
	ops, err := g.TopoOrder()
	var slots []string
	if err == nil {
		seenSlot := make(map[string]bool)
		for _, op := range ops {
			if s := g.SlotOf(op); !seenSlot[s] {
				seenSlot[s] = true
				slots = append(slots, s)
			}
		}
	} else {
		slots = m.r.ActiveSlots()
	}
	seen := make(map[simnet.NodeID]bool)
	for i := len(slots) - 1; i >= 0; i-- {
		if pid, ok := m.r.Placement(slots[i]); ok && !seen[pid] {
			seen[pid] = true
			// The timeout is generous: proceeding to an upstream while a
			// consumer's resume is still in flight reopens the window
			// where replay traffic hits a still-closed stream path.
			c.request(pid, node.Command{Op: node.CmdResume}, 120*time.Second)
		}
	}
}

// recoverDist is classic distributed-checkpoint recovery: only the failed
// slots restore (from a surviving peer copy), and their upstreams resend
// retained output.
func (c *Controller) recoverDist(m *managed, failedSlots []string, k int) {
	// Tolerance is judged against the cumulative burst (failure reports
	// can trickle in across debounce windows): dist-n dies beyond n
	// total failures, as in the paper's n+1-point curves.
	if total := m.r.FailedPhoneCount(); total > k {
		k = total
	}
	if !m.r.Scheme().CanRecover(k, m.r.IdleCount()) {
		c.killRegion(m)
		return
	}
	m.mu.Lock()
	v := m.committed
	m.mu.Unlock()
	for _, slot := range failedSlots {
		repl := m.r.TakeIdle()
		if repl == "" {
			c.killRegion(m)
			return
		}
		c.shipCode(repl)
		m.r.ActivateReplacement(repl, slot)
		peer := repl
		if v > 0 {
			holders := m.r.BlobHolders(v, slot)
			if len(holders) == 0 {
				c.logf("controller: no surviving copy of %s v%d", slot, v)
				c.killRegion(m)
				return
			}
			peer = holders[0]
		}
		c.send(repl, node.Command{Op: node.CmdFetchRestore, Version: v, Target: peer, Slot: slot})
	}
}

// recoverRep2 promotes standbys; more than one failure is unrecoverable.
func (c *Controller) recoverRep2(m *managed, failedSlots []string, k int) {
	if total := m.r.FailedPhoneCount(); total > k {
		k = total
	}
	if !m.r.Scheme().CanRecover(k, 0) {
		c.killRegion(m)
		return
	}
	for _, slot := range failedSlots {
		if n := m.r.PromoteStandby(slot); n == nil {
			c.killRegion(m)
			return
		}
	}
}

// killRegion stops a region and bypasses it (§III-D: connect the region's
// upstream and downstream neighbours directly).
func (c *Controller) killRegion(m *managed) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.mu.Unlock()
	m.r.Stop()
	c.logf("controller: region %s is dead, bypassing", m.r.ID())
}

// activePhones lists the phones currently hosting slots.
func (c *Controller) activePhones(m *managed) []simnet.NodeID {
	seen := make(map[simnet.NodeID]bool)
	var ids []simnet.NodeID
	for _, slot := range m.r.ActiveSlots() {
		if pid, ok := m.r.Placement(slot); ok && !seen[pid] {
			seen[pid] = true
			ids = append(ids, pid)
		}
	}
	return ids
}

// awaitRestored polls until every phone reports restoration or the timeout
// elapses.
func (c *Controller) awaitRestored(m *managed, phones []simnet.NodeID, timeout time.Duration) {
	deadline := c.clk.Now() + timeout
	for c.clk.Now() < deadline && !c.stopped() {
		m.mu.Lock()
		done := true
		for _, pid := range phones {
			if _, ok := m.restored[pid]; !ok {
				done = false
				break
			}
		}
		m.mu.Unlock()
		if done {
			return
		}
		c.clk.Sleep(500 * time.Millisecond)
	}
}

// NotifyDeparture is the GPS feed (§III-E): the named phone has left its
// region. The controller selects a replacement, orders the state transfer
// over cellular, and repoints the slot.
func (c *Controller) NotifyDeparture(regionID string, phoneID simnet.NodeID) {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil || m.isDead() {
		return
	}
	m.mu.Lock()
	m.departures++
	m.mu.Unlock()
	slots := m.r.SlotsOn(phoneID)
	if len(slots) == 0 {
		m.r.Unregister(phoneID)
		return
	}
	if !m.r.Scheme().HandlesDepartures() {
		// Prior schemes have no mobility story: the slot stays placed on
		// the departed phone and the region limps along in urgent mode —
		// permanently (paper §IV-B runs departures only on MobiStreams).
		// Warn once per region; churny workloads would otherwise repeat
		// this line on every departure.
		m.mu.Lock()
		warned := m.noMobilityWarned
		m.noMobilityWarned = true
		m.mu.Unlock()
		if !warned {
			c.logf("controller: region %s: scheme %s has no mobility story; departed phones keep their slots in urgent mode",
				m.r.ID(), m.r.Scheme())
		}
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Serialise with live migrations: both paths vacate a slot with
		// its state in flight, and two concurrent transfers of the same
		// phone's slots would race each other's placement repoints. The
		// flag also holds off checkpoint rounds across the handoff.
		m.mu.Lock()
		for m.migrating && !m.dead {
			m.mu.Unlock()
			if c.stopped() {
				return
			}
			c.clk.Sleep(300 * time.Millisecond)
			m.mu.Lock()
		}
		if m.dead {
			m.mu.Unlock()
			return
		}
		m.migrating = true
		m.mu.Unlock()
		defer func() {
			m.mu.Lock()
			m.migrating = false
			m.mu.Unlock()
		}()
		// Re-read the slots under the interlock: a migration that just
		// finished may already have moved some off the departing phone.
		c.reclaimSpares(m)
		for _, slot := range m.r.SlotsOn(phoneID) {
			repl := m.r.TakeIdle()
			if repl == "" {
				c.logf("controller: no replacement for departing %s; staying in urgent mode", phoneID)
				return
			}
			c.shipCode(repl)
			// Order the departing phone to hand its state to the
			// replacement over cellular (Fig. 7, instants 2-4).
			m.mu.Lock()
			delete(m.restored, repl)
			m.mu.Unlock()
			c.send(phoneID, node.Command{Op: node.CmdHandoff, Target: repl})
			if c.awaitTransfer(m, repl, 120*time.Second) {
				m.r.SetPlacement(slot, repl)
			} else {
				c.logf("controller: handoff of %s to %s timed out", slot, repl)
			}
		}
		m.r.Unregister(phoneID)
	}()
}

// awaitTransfer polls until the replacement reports its transfer restore.
func (c *Controller) awaitTransfer(m *managed, repl simnet.NodeID, timeout time.Duration) bool {
	deadline := c.clk.Now() + timeout
	for c.clk.Now() < deadline && !c.stopped() {
		m.mu.Lock()
		v, ok := m.restored[repl]
		m.mu.Unlock()
		if ok && v == ^uint64(0) {
			return true
		}
		c.clk.Sleep(300 * time.Millisecond)
	}
	return false
}

// Departures reports how many departures a region has processed.
func (c *Controller) Departures(regionID string) int {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.departures
}

// CatchUpCount reports how many sinks completed catch-up for an epoch.
func (c *Controller) CatchUpCount(regionID string, epoch uint64) int {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.catchUpDone[epoch]
}
