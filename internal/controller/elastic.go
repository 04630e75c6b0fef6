package controller

import (
	"slices"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// The adaptive loop's tuning: constants, as no caller ever set them apart
// from the elastic experiment, whose values these are.
const (
	// elasticTick is how often the executor polls keyed groups for a
	// split or merge; the engine plans every scheduleTick.
	elasticTick = time.Second
	// An active instance with hotBacklog queued tuples is saturated and
	// split onto a dormant instance: a saturated instance's excess crosses
	// 10 within a few seconds, queue jitter well below saturation does not.
	hotBacklog = 10
	// An active, drained instance whose tuple rate is below coldFraction
	// of its group's mean for minColdPolls polls in a row merges into its
	// least loaded peer. A single poll is too noisy a witness: a trickle
	// can alias to zero tuples in one window.
	coldFraction = 0.05
	minColdPolls = 3
	// elasticCooldown holds a group, and the slots of a split or merge,
	// still after an action: a split takes a table flip and a state ship
	// to settle, and re-reading the same backlog before it drains would
	// cascade splits.
	elasticCooldown = 4 * time.Second
	// migrateCooldown holds a slot after a migration or elastic action
	// before the engine may migrate it. It has to stay shorter than a phone
	// that crosses the battery floor lasts: a fresh host can cliff right
	// after it received a slot (8% of 150 J is ~20 s under load), and a
	// window that outlasts it turns the second evacuation into a reactive
	// recovery.
	migrateCooldown = 10 * time.Second
)

// cooldowns is a region's per-slot ledger: the simulated time a migrate,
// split or merge step last touched each slot. Only the executor goroutine
// reads or writes it. The engine's migrate steps and the elastic
// decision's splits and merges both check it, and the executor charges
// every slot a step touches when it attempts the step, so neither loop
// disrupts a slot the other has just moved.
type cooldowns map[string]time.Duration

// ready reports whether no slot was touched within window before now.
func (cd cooldowns) ready(now, window time.Duration, slots ...string) bool {
	for _, s := range slots {
		if at, ok := cd[s]; ok && now-at < window {
			return false
		}
	}
	return true
}

// hold drops the plan's migrate steps whose slot is inside
// migrateCooldown at now.
func (cd cooldowns) hold(plan *placement.Plan, now time.Duration) *placement.Plan {
	plan.Steps = slices.DeleteFunc(plan.Steps, func(st placement.Step) bool {
		return st.Kind == placement.StepMigrate && !cd.ready(now, migrateCooldown, st.Slot)
	})
	return plan
}

// instanceStat is one keyed instance's backpressure reading.
type instanceStat struct {
	Index  int
	Slot   string
	Active bool // owns at least one key range; dormant ones are split targets
	// Backlog is the instance's queued stream items; TupleRate the tuples
	// it processed per simulated second since the previous poll.
	Backlog   int
	TupleRate float64
}

// elastic is what the elastic decision remembers between polls. Only the
// executor goroutine touches it.
type elastic struct {
	last     map[string]time.Duration // group → its last split or merge
	coldRuns map[string]map[int]int   // group → instance → cold polls in a row
	// prev holds each instance's processed count at the previous poll.
	prev map[string]processedAt
}

type processedAt struct {
	at    time.Duration
	count uint64
}

func newElastic() *elastic {
	return &elastic{
		last:     make(map[string]time.Duration),
		coldRuns: make(map[string]map[int]int),
		prev:     make(map[string]processedAt),
	}
}

// decide returns at most one split or merge step for a keyed group, or
// nil: split the most backlogged saturated instance onto the first dormant
// one; otherwise, with nothing hot, merge the coldest instance into the
// least backlogged of the others. A group acted on in the last
// elasticCooldown, or an action whose slots the ledger holds, waits. A
// returned step starts the group's cooldown and clears its cold streaks,
// as a reconfiguration redistributes the traffic they were counted on.
func (e *elastic) decide(now time.Duration, group string, stats []instanceStat, cool cooldowns) *placement.Step {
	if at, ok := e.last[group]; ok && now-at < elasticCooldown {
		return nil
	}
	var active []instanceStat
	dormant := -1
	for i, st := range stats {
		if st.Active {
			active = append(active, st)
		} else if dormant < 0 {
			dormant = i
		}
	}
	if len(active) == 0 {
		return nil
	}
	hottest := active[0]
	for _, st := range active[1:] {
		if st.Backlog > hottest.Backlog {
			hottest = st
		}
	}
	act := func(kind placement.StepKind, from, to instanceStat, reason string) *placement.Step {
		if !cool.ready(now, elasticCooldown, from.Slot, to.Slot) {
			return nil
		}
		e.last[group] = now
		delete(e.coldRuns, group)
		return &placement.Step{Kind: kind, Slot: from.Slot, Group: group, Donor: from.Index, Recipient: to.Index, Reason: reason}
	}
	if hottest.Backlog >= hotBacklog {
		if dormant < 0 {
			return nil // shrinking a group under pressure would amplify it
		}
		return act(placement.StepSplit, hottest, stats[dormant], "backpressure")
	}
	if len(active) < 2 {
		return nil
	}
	var mean float64
	for _, st := range active {
		mean += st.TupleRate
	}
	if mean /= float64(len(active)); mean <= 0 {
		// No rate signal (first poll, or a stalled window): every instance
		// would read as cold. Wait for real telemetry.
		return nil
	}
	runs := e.coldRuns[group]
	if runs == nil {
		runs = make(map[int]int)
		e.coldRuns[group] = runs
	}
	coldest := -1
	for i, st := range active {
		if st.Backlog == 0 && st.TupleRate <= coldFraction*mean {
			runs[st.Index]++
		} else {
			delete(runs, st.Index)
		}
		if runs[st.Index] >= minColdPolls && (coldest < 0 || st.TupleRate < active[coldest].TupleRate) {
			coldest = i
		}
	}
	if coldest < 0 {
		return nil
	}
	to := -1
	for i, st := range active {
		if i != coldest && (to < 0 || st.Backlog < active[to].Backlog) {
			to = i
		}
	}
	return act(placement.StepMerge, active[coldest], active[to], "cold")
}

// elasticTick runs the elastic decision over every keyed group with
// dormant headroom and executes what it decides as a one-step plan.
func (c *Controller) elasticTick(m *managed) {
	if !m.transferable() {
		return
	}
	for _, gs := range elasticGroups(m.r.Graph()) {
		stats := c.instanceStats(m, gs)
		if st := m.elastic.decide(c.clk.Now(), gs.Logical, stats, m.cool); st != nil {
			c.runPlan(m, &placement.Plan{Region: m.r.ID(), Cause: "elastic " + gs.Logical, Steps: []placement.Step{*st}})
		}
	}
}

// elasticGroups lists the keyed groups that declare more instances than
// they start with: the groups the elastic decision may scale.
func elasticGroups(g *graph.Graph) []graph.KeyedGroupSpec {
	var out []graph.KeyedGroupSpec
	for _, gs := range g.KeyedGroups() {
		if len(gs.Instances) > gs.Parallelism {
			out = append(out, gs)
		}
	}
	return out
}

// instanceStats pings the hosts of one keyed group's instances at once and
// reads each answer's backlog and processed count, differentiating the
// count against the previous reading into a tuple rate; range ownership
// comes from the group's table. An instance whose host does not answer
// within one elasticTick gives no reading and is left out.
func (c *Controller) instanceStats(m *managed, gs graph.KeyedGroupSpec) []instanceStat {
	grp, ok := m.r.KeyedGroup(gs.Logical)
	if !ok {
		return nil
	}
	var hosts []simnet.NodeID
	var pings []node.Command
	for _, slot := range gs.Slots {
		host, _ := m.host(slot)
		hosts = append(hosts, host)
		pings = append(pings, node.Command{Op: node.CmdPing, Slot: slot})
	}
	got := c.answers(hosts, elasticTick, pings...)
	now := c.clk.Now()
	active := make(map[int]bool)
	for _, i := range grp.Table().Instances() {
		active[i] = true
	}
	var stats []instanceStat
	for i, inst := range gs.Instances {
		a, read := got[hosts[i]]
		if !read {
			continue
		}
		st := instanceStat{Index: i, Slot: gs.Slots[i], Active: active[i], Backlog: a.Backlog}
		if prev, ok := m.elastic.prev[inst]; ok && now > prev.at && a.Processed > prev.count {
			st.TupleRate = float64(a.Processed-prev.count) / (now - prev.at).Seconds()
		}
		m.elastic.prev[inst] = processedAt{at: now, count: a.Processed}
		stats = append(stats, st)
	}
	return stats
}
