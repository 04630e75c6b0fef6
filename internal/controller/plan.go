package controller

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"mobistreams/internal/ft"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// snapshot is everything a recovery or handoff plan is decided from, read
// at one instant from the region's placement and idle pool and from the
// controller's own record of failures, commits and holders. The builders
// below are pure functions of it: no region, network or clock.
type snapshot struct {
	Region string
	Scheme ft.Scheme
	// Lost are the phones the plan replaces: one debounced batch of failed
	// phones in report order, or one departing phone.
	Lost      []simnet.NodeID
	Placement map[string]simnet.NodeID // every active slot's host
	Order     []string                 // slots in topological order
	Sources   []string                 // source slots
	// Idle are the replacements in hand-out order; Spares, sorted, are the
	// planner's warm spares, which a plan releases first and draws on last.
	Idle      []simnet.NodeID
	Spares    []simnet.NodeID
	Committed uint64 // the latest committed checkpoint version
	Epoch     uint64 // the last catch-up epoch
	// Holders lists, per lost slot, the phones the slot's persisted
	// reports named as holding Committed's complete blob chain, less the
	// ones noted failed since.
	Holders map[string][]simnet.NodeID
	// FailedTotal counts the phones noted failed since Committed, this
	// batch included: a scheme's tolerance is judged against the whole
	// burst, whose reports can trickle in across debounce windows. A
	// commit copies every slot's state afresh, so it ends the burst.
	FailedTotal int
}

// lostSlots lists the slots the lost phones host, phone by phone, each
// phone's slots sorted.
func (s *snapshot) lostSlots() []string {
	var slots []string
	for _, id := range s.Lost {
		n := len(slots)
		for slot, host := range s.Placement {
			if host == id {
				slots = append(slots, slot)
			}
		}
		sort.Strings(slots[n:])
	}
	return slots
}

// planner accumulates one plan's steps.
type planner struct {
	s     *snapshot
	plan  *placement.Plan
	idle  []simnet.NodeID          // replacements still unassigned
	place map[string]simnet.NodeID // placement once the plan has run
}

func newPlanner(s *snapshot, version uint64, cause string) *planner {
	return &planner{s: s, plan: &placement.Plan{Region: s.Region, Version: version, Cause: cause},
		idle: append(slices.Clone(s.Idle), s.Spares...), place: maps.Clone(s.Placement)}
}

func (p *planner) add(st placement.Step) { p.plan.Steps = append(p.plan.Steps, st) }

func (p *planner) kill(format string, args ...interface{}) *placement.Plan {
	p.add(placement.Step{Kind: placement.StepKill, Reason: fmt.Sprintf(format, args...)})
	return p.plan
}

// releaseSpares returns the warm spares to the idle pool replacements are
// drawn from: with one idle phone, the spare is the only replacement.
func (p *planner) releaseSpares() {
	for _, id := range p.s.Spares {
		p.add(placement.Step{Kind: placement.StepRelease, To: id, Reason: "spare:reclaim"})
	}
}

// activate re-hosts slot on the next idle phone and returns it.
func (p *planner) activate(slot string) simnet.NodeID {
	repl := p.idle[0]
	p.idle = p.idle[1:]
	p.add(placement.Step{Kind: placement.StepActivate, Slot: slot, To: repl, Reason: "replace:" + string(p.s.Placement[slot])})
	p.place[slot] = repl
	return repl
}

// hosts lists the distinct phones hosting slots after the plan, in order.
func (p *planner) hosts(slots []string) []simnet.NodeID {
	seen := make(map[simnet.NodeID]bool)
	var ids []simnet.NodeID
	for _, slot := range slots {
		if id, ok := p.place[slot]; ok && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// recoveryPlanners builds each scheme's recovery from the slots lost.
// Schemes without an entry (base, local) have no phone-replacement story:
// their region dies.
var recoveryPlanners = map[ft.Kind]func(*planner, []string) *placement.Plan{
	ft.MS:    planMS,
	ft.DistN: planDist,
	ft.Rep2:  planRep2,
}

// recoveryPlan decides how a region recovers from one batch of failed
// phones (§III-D). A batch hosting no slot (an idle phone died, or a
// vacated transfer source was reported) yields an empty plan: the stream
// is intact.
func recoveryPlan(s *snapshot) *placement.Plan {
	p := newPlanner(s, s.Committed, fmt.Sprintf("recover %s k=%d", s.Scheme, len(s.Lost)))
	slots := s.lostSlots()
	if len(slots) == 0 {
		return p.plan
	}
	p.releaseSpares()
	build := recoveryPlanners[s.Scheme.Kind]
	if build == nil {
		return p.kill("%s has no replacement story", s.Scheme)
	}
	return build(p, slots)
}

// planMS is MobiStreams recovery (§III-D): every node restores the MRC
// from its own local storage in parallel, sources replay preserved input,
// sinks suppress catch-up output. The region resumes downstream-first: a
// restored node drops arrivals until its resume, so every consumer must be
// open before any upstream pushes replay traffic.
func planMS(p *planner, slots []string) *placement.Plan {
	s := p.s
	if !s.Scheme.CanRecover(len(slots), len(p.idle)) {
		return p.kill("%d slots lost, %d idle phones", len(slots), len(p.idle))
	}
	for _, slot := range slots {
		p.activate(slot)
	}
	byName, downstreamFirst := slices.Clone(s.Order), slices.Clone(s.Order)
	sort.Strings(byName)
	slices.Reverse(downstreamFirst)
	phones, v := p.hosts(byName), s.Committed
	p.add(placement.Step{Kind: placement.StepPause, Phones: phones, Reason: "region-wide"})
	p.add(placement.Step{Kind: placement.StepRestore, Phones: phones, Version: v, Reason: "local-mrc"})
	p.add(placement.Step{Kind: placement.StepReplay, Phones: p.hosts(s.Sources), Version: v, Epoch: s.Epoch + 1, Reason: "catch-up"})
	p.add(placement.Step{Kind: placement.StepResume, Phones: p.hosts(downstreamFirst), Reason: "downstream-first"})
	return p.plan
}

// planDist is classic distributed-checkpoint recovery: only the failed
// slots restore, each from a surviving peer copy, and their upstreams
// resend retained output. dist-n dies beyond n failures in the whole burst,
// as in the paper's n+1-point curves.
func planDist(p *planner, slots []string) *placement.Plan {
	s := p.s
	k := max(len(s.Lost), s.FailedTotal)
	if !s.Scheme.CanRecover(k, len(p.idle)) {
		return p.kill("%d failed, %s with %d idle phones", k, s.Scheme, len(p.idle))
	}
	if len(slots) > len(p.idle) {
		return p.kill("no idle phone for %s", slots[len(p.idle)])
	}
	v := s.Committed
	for _, slot := range slots {
		if v > 0 && len(s.Holders[slot]) == 0 {
			return p.kill("no surviving copy of %s v%d", slot, v)
		}
	}
	for _, slot := range slots {
		repl := p.activate(slot)
		holders := []simnet.NodeID{repl} // nothing committed yet: start from empty state
		if v > 0 {
			holders = s.Holders[slot]
		}
		p.add(placement.Step{Kind: placement.StepFetchRestore, Slot: slot, From: holders[0], To: repl,
			Phones: holders, Version: v, Reason: "peer-copy"})
	}
	return p.plan
}

// planRep2 promotes standbys; more than one failure in the burst is
// unrecoverable.
func planRep2(p *planner, slots []string) *placement.Plan {
	s := p.s
	if k := max(len(s.Lost), s.FailedTotal); !s.Scheme.CanRecover(k, 0) {
		return p.kill("%d failed, %s tolerates 1", k, s.Scheme)
	}
	for _, slot := range slots {
		p.add(placement.Step{Kind: placement.StepPromote, Slot: slot, Reason: "standby"})
	}
	return p.plan
}

// handoffPlan moves a departing phone's slots onto idle phones (§III-E),
// then unregisters it. With no idle phone left, the remaining slots stay
// on the departed phone in urgent mode and it stays registered.
func handoffPlan(s *snapshot) *placement.Plan {
	from := s.Lost[0]
	p := newPlanner(s, 0, "depart "+string(from))
	slots := s.lostSlots()
	if len(slots) > 0 {
		p.releaseSpares()
	}
	for _, slot := range slots {
		if len(p.idle) == 0 {
			p.plan.Cause += " (no idle phone: " + slot + " stays in urgent mode)"
			return p.plan
		}
		p.add(placement.Step{Kind: placement.StepHandoff, Slot: slot, From: from, To: p.idle[0], Reason: "depart"})
		p.idle = p.idle[1:]
	}
	p.add(placement.Step{Kind: placement.StepUnregister, From: from, Reason: "departed"})
	return p.plan
}
