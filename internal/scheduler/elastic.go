package scheduler

import (
	"sync"
	"time"
)

// InstanceStat is one keyed instance's telemetry snapshot: the
// backpressure signals the elasticity policy reads.
type InstanceStat struct {
	// Instance is the instance operator ID (logical#i); Index its
	// position in the group.
	Instance string
	Index    int
	// Slot is the graph slot hosting the instance — the key the shared
	// cooldowns ledger tracks, so a migration of the slot and an elastic
	// reconfiguration of the instance see each other's cooldowns.
	Slot string
	// Active reports whether the instance owns at least one key range.
	// Dormant instances are split targets.
	Active bool
	// Backlog is the instance's queued-but-unprocessed stream items.
	Backlog int
	// TupleRate is tuples processed per simulated second since the
	// previous poll.
	TupleRate float64
}

// elasticAction is one planned parallelism change for a keyed group:
// either split instance From's key range onto (dormant) instance To, or
// merge every range instance From owns into instance To.
type elasticAction struct {
	Logical string
	Split   bool
	From    int
	To      int
	Reason  string
}

// ElasticPolicy turns per-instance backpressure telemetry into split and
// merge decisions. Like the placement planner it is a pure decision
// library: the region produces InstanceStats and executes the returned
// action (SplitInstance / MergeKeyRange); the policy holds only cooldown
// state.
type ElasticPolicy struct {
	// HotBacklog is the queue depth at which an active instance is
	// considered saturated and worth splitting (default 64).
	HotBacklog int
	// ColdFraction marks an active instance mergeable when its tuple rate
	// falls below this fraction of the group's mean active rate and its
	// backlog is empty (default 0.1).
	ColdFraction float64
	// Cooldown suppresses re-planning a group that was reconfigured
	// within the window — a split takes a table flip and a state ship to
	// settle, and re-reading the same saturated backlog before it drains
	// would cascade splits (default 10 s).
	Cooldown time.Duration
	// Cooldowns, when set, is the per-slot disruption ledger shared with
	// the migration planner: an instance whose slot was just migrated is
	// not split or merged within Cooldown, and a planned split/merge notes
	// the slots it touches so the planner will not migrate them either.
	Cooldowns *cooldowns
	// Scope qualifies slot keys in the shared ledger; use the region name
	// the migration planner plans under.
	Scope string

	mu       sync.Mutex
	last     map[string]time.Duration
	coldRuns map[string]map[int]int
}

// minColdPolls is how many consecutive Plan calls must see an instance cold
// before it is merged away. A single poll window is too noisy a witness: a
// low-rate instance's trickle can alias to zero tuples in one window, and
// merging on that evidence hands its whole key range to a peer right before
// the traffic comes back.
const minColdPolls = 3

func (p *ElasticPolicy) params() (hot int, cold float64, cooldown time.Duration) {
	hot, cold, cooldown = p.HotBacklog, p.ColdFraction, p.Cooldown
	if hot <= 0 {
		hot = 64
	}
	if cold <= 0 {
		cold = 0.1
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return hot, cold, cooldown
}

// Plan inspects one keyed group's instance telemetry and returns at most
// one action to run now, or nil. A returned action is recorded against the
// group's cooldown immediately; the caller is expected to attempt it.
func (p *ElasticPolicy) Plan(now time.Duration, logical string, stats []InstanceStat) *elasticAction {
	hot, cold, cooldown := p.params()
	p.mu.Lock()
	if p.last == nil {
		p.last = make(map[string]time.Duration)
	}
	if at, ok := p.last[logical]; ok && now-at < cooldown {
		p.mu.Unlock()
		return nil
	}
	p.mu.Unlock()

	var active []InstanceStat
	dormant := -1
	dormantSlot := ""
	for _, st := range stats {
		if st.Active {
			active = append(active, st)
		} else if dormant < 0 {
			dormant = st.Index
			dormantSlot = st.Slot
		}
	}
	if len(active) == 0 {
		return nil
	}

	// Split: the hottest saturated instance hands half its keys to a
	// dormant one.
	hottest := active[0]
	for _, st := range active[1:] {
		if st.Backlog > hottest.Backlog {
			hottest = st
		}
	}
	if hottest.Backlog >= hot && dormant >= 0 {
		if !p.slotReady(hottest.Slot, now, cooldown) || !p.slotReady(dormantSlot, now, cooldown) {
			// A migration just disrupted one of the slots involved; let
			// its state settle before flipping routing tables on it.
			return nil
		}
		p.note(logical, now)
		p.noteSlots(now, hottest.Slot, dormantSlot)
		return &elasticAction{
			Logical: logical, Split: true,
			From: hottest.Index, To: dormant,
			Reason: "backpressure",
		}
	}

	// Merge: a drained, near-idle instance hands its ranges to the least
	// loaded of the remaining active instances. Only when nothing is hot —
	// shrinking a group under pressure would amplify it.
	if len(active) < 2 || hottest.Backlog >= hot {
		return nil
	}
	var mean float64
	for _, st := range active {
		mean += st.TupleRate
	}
	mean /= float64(len(active))
	if mean <= 0 {
		// No rate signal (first poll, or a stalled window): every instance
		// would read as cold. Wait for real telemetry.
		return nil
	}
	p.mu.Lock()
	if p.coldRuns == nil {
		p.coldRuns = make(map[string]map[int]int)
	}
	runs := p.coldRuns[logical]
	if runs == nil {
		runs = make(map[int]int)
		p.coldRuns[logical] = runs
	}
	coldest, coldIdx := InstanceStat{}, -1
	for i, st := range active {
		if st.Backlog == 0 && st.TupleRate <= cold*mean {
			runs[st.Index]++
		} else {
			delete(runs, st.Index)
		}
		if runs[st.Index] >= minColdPolls && (coldIdx < 0 || st.TupleRate < coldest.TupleRate) {
			coldest, coldIdx = st, i
		}
	}
	p.mu.Unlock()
	if coldIdx < 0 {
		return nil
	}
	to := -1
	for i, st := range active {
		if i == coldIdx {
			continue
		}
		if to < 0 || st.Backlog < active[to].Backlog {
			to = i
		}
	}
	if to < 0 {
		return nil
	}
	if !p.slotReady(coldest.Slot, now, cooldown) || !p.slotReady(active[to].Slot, now, cooldown) {
		return nil
	}
	p.note(logical, now)
	p.noteSlots(now, coldest.Slot, active[to].Slot)
	return &elasticAction{
		Logical: logical,
		From:    coldest.Index, To: active[to].Index,
		Reason: "cold",
	}
}

// slotReady consults the shared per-slot ledger; without a ledger (or a
// slot) every instance is ready.
func (p *ElasticPolicy) slotReady(slot string, now, window time.Duration) bool {
	if p.Cooldowns == nil || slot == "" {
		return true
	}
	return p.Cooldowns.ready(p.Scope, slot, now, window)
}

// noteSlots records a planned reconfiguration against the slots it touches
// in the shared ledger, so the migration scheduler backs off them too.
func (p *ElasticPolicy) noteSlots(now time.Duration, slots ...string) {
	if p.Cooldowns == nil {
		return
	}
	for _, s := range slots {
		if s != "" {
			p.Cooldowns.note(p.Scope, s, now)
		}
	}
}

// note records an action against the group's cooldown and resets its cold
// streaks: a reconfiguration redistributes traffic, so prior cold evidence
// no longer describes the instances it was gathered on.
func (p *ElasticPolicy) note(logical string, now time.Duration) {
	p.mu.Lock()
	p.last[logical] = now
	delete(p.coldRuns, logical)
	p.mu.Unlock()
}
