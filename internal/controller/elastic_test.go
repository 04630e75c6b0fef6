package controller

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
	"mobistreams/internal/tuple"
)

func elasticStats() []instanceStat {
	return []instanceStat{
		{Index: 0, Slot: "s0", Active: true, Backlog: 0, TupleRate: 100},
		{Index: 1, Slot: "s1", Active: true, Backlog: 0, TupleRate: 90},
		{Index: 2, Slot: "s2", Active: false},
	}
}

func TestElasticSplitsHottestOntoDormant(t *testing.T) {
	stats := elasticStats()
	stats[1].Backlog = hotBacklog
	st := newElastic().decide(time.Second, "op", stats, nil)
	want := &placement.Step{Kind: placement.StepSplit, Slot: "s1", Group: "op", Donor: 1, Recipient: 2, Reason: "backpressure"}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("decide = %+v, want %+v", st, want)
	}
}

func TestElasticNoSplitWithoutDormantTarget(t *testing.T) {
	stats := elasticStats()[:2]
	stats[0].Backlog = 500
	if st := newElastic().decide(time.Second, "op", stats, nil); st != nil {
		t.Fatalf("decide = %+v, want nil when every instance is active", st)
	}
}

func TestElasticMergesColdInstance(t *testing.T) {
	e := newElastic()
	stats := elasticStats()
	stats[1].TupleRate = 1 // drained and near-idle vs mean ~50
	stats[0].Backlog = 3   // the survivor, lightly loaded but below hotBacklog
	// One or two cold sightings are not evidence (a trickle can alias to
	// zero in a single poll window); minColdPolls consecutive are.
	for poll := 1; poll < minColdPolls; poll++ {
		if st := e.decide(time.Duration(poll)*time.Second, "op", stats, nil); st != nil {
			t.Fatalf("decide = %+v after %d cold polls, want nil until %d", st, poll, minColdPolls)
		}
	}
	st := e.decide(minColdPolls*time.Second, "op", stats, nil)
	want := &placement.Step{Kind: placement.StepMerge, Slot: "s1", Group: "op", Donor: 1, Recipient: 0, Reason: "cold"}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("decide = %+v, want %+v", st, want)
	}
}

func TestElasticColdStreakResetsOnWarmPoll(t *testing.T) {
	e := newElastic()
	stats := elasticStats()
	stats[1].TupleRate = 1
	e.decide(time.Second, "op", stats, nil)
	e.decide(2*time.Second, "op", stats, nil)
	e.decide(3*time.Second, "op", elasticStats(), nil) // instance 1 back at rate 90: streak resets
	if st := e.decide(4*time.Second, "op", stats, nil); st != nil {
		t.Fatalf("decide = %+v, want nil: cold streak was broken by a warm poll", st)
	}
}

func TestElasticNoMergeWithoutRateSignal(t *testing.T) {
	stats := elasticStats()
	stats[0].TupleRate = 0 // unwarmed telemetry: every instance reads 0
	stats[1].TupleRate = 0
	if st := newElastic().decide(time.Second, "op", stats, nil); st != nil {
		t.Fatalf("decide = %+v, want nil when no instance reports a rate", st)
	}
}

func TestElasticNoMergeUnderPressure(t *testing.T) {
	stats := elasticStats()[:2] // no dormant target, so the hot path can't fire
	stats[0].Backlog = 500
	stats[1].TupleRate = 0
	stats[1].Backlog = 0
	if st := newElastic().decide(time.Second, "op", stats, nil); st != nil {
		t.Fatalf("decide = %+v, want no merge while an instance is saturated", st)
	}
}

func TestElasticCooldownSuppressesReplanning(t *testing.T) {
	e := newElastic()
	stats := elasticStats()
	stats[0].Backlog = 200
	if st := e.decide(time.Second, "op", stats, nil); st == nil {
		t.Fatal("first decision suppressed")
	}
	if st := e.decide(2*time.Second, "op", stats, nil); st != nil {
		t.Fatalf("decide = %+v inside the cooldown window", st)
	}
	// A different group is not throttled by op's cooldown.
	if st := e.decide(2*time.Second, "other", stats, nil); st == nil {
		t.Fatal("cooldown leaked across groups")
	}
	if st := e.decide(time.Second+elasticCooldown, "op", stats, nil); st == nil {
		t.Fatal("decision still suppressed after the cooldown elapsed")
	}
}

// newKeyedRegion starts src -> kb -> tally -> out, tally a keyed group of
// three instances with `active` of them active, on seven phones (one
// idle), and runs 20 tuples over four keys through it, so instance 0 holds
// keys a split can cut between (the keys sort below the default bounds).
func newKeyedRegion(t *testing.T, active int) (*Controller, *region.Region, graph.KeyedGroupSpec) {
	t.Helper()
	var b graph.Builder
	b.AddOperator("src", "n1").AddOperator("kb", "n2").AddOperator("out", "n9")
	b.AddKeyedOperator("tally", "kt", active, 3)
	b.Connect("src", "kb")
	b.ConnectToGroup("kb", "tally")
	b.ConnectFromGroup("tally", "out")
	reg := operator.Registry{
		"src": func() operator.Operator { return operator.NewPassthrough("src") },
		"kb": func() operator.Operator {
			return operator.NewKeyTag("kb", func(t *tuple.Tuple) string { return t.Kind })
		},
		"out": func() operator.Operator { return operator.NewPassthrough("out") },
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("tally#%d", i)
		reg[id] = func() operator.Operator { return operator.NewKeyedTally(id) }
	}
	c, r := startRegion(t, 100, quiet, &b, reg, 7, 0)
	for i := 1; i <= 20; i++ {
		r.Ingest("src", i, 64, fmt.Sprintf("k%d", i%4))
	}
	for deadline := time.Now().Add(10 * time.Second); r.Outputs() < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("outputs = %d, want 20", r.Outputs())
		}
	}
	gs, _ := r.Graph().KeyedGroup("tally")
	return c, r, gs
}

// onExecutor runs job on the region's executor and waits for it.
func onExecutor(c *Controller, m *managed, job func()) {
	done := make(chan struct{})
	c.enqueue(m, func() { job(); close(done) })
	<-done
}

// TestCooldownUnification checks the one ledger both halves of the
// adaptive loop share. A migrate the executor runs holds back a split
// touching its slot inside elasticCooldown; the split, once run, holds
// back the engine's migrate of the donor's slot inside migrateCooldown.
func TestCooldownUnification(t *testing.T) {
	c, r, gs := newKeyedRegion(t, 1)
	m := c.lookup("r1")
	hot := []instanceStat{
		{Index: 0, Slot: gs.Slots[0], Active: true, Backlog: 50},
		{Index: 1, Slot: gs.Slots[1]},
		{Index: 2, Slot: gs.Slots[2]},
	}

	// 1. The executor migrates dormant instance 1's slot, charging it.
	_, idle := r.Founding()
	if !c.Migrate("r1", gs.Slots[1], idle[0]) {
		t.Fatal("migrate failed")
	}
	migratedAt := m.cool[gs.Slots[1]]

	// 2. The saturated instance 0 may not split onto the just-migrated
	// slot until its cooldown is over.
	e := newElastic()
	if st := e.decide(migratedAt+elasticCooldown/2, "tally", hot, m.cool); st != nil {
		t.Fatalf("decide = %v inside the migration cooldown of %s", st, gs.Slots[1])
	}
	split := e.decide(migratedAt+elasticCooldown, "tally", hot, m.cool)
	if split == nil || split.Kind != placement.StepSplit || split.Recipient != 1 {
		t.Fatalf("decide = %+v after the migration cooldown, want a split of 0 onto 1", split)
	}

	// 3. The executor runs the split, charging both slots; the engine's
	// migrate of the donor's slot is held back inside the window.
	var ok bool
	onExecutor(c, m, func() {
		_, ok = c.runPlan(m, &placement.Plan{Region: "r1", Cause: "elastic tally", Steps: []placement.Step{*split}})
	})
	if !ok {
		t.Fatal("split failed")
	}
	splitAt := m.cool[gs.Slots[0]]
	if m.cool[gs.Slots[1]] != splitAt || splitAt <= migratedAt {
		t.Fatalf("split charged %v, want both slots after the migration at %v", m.cool, migratedAt)
	}
	host, _ := r.Placement(gs.Slots[0])
	evac := func() *placement.Plan {
		return &placement.Plan{Region: "r1", Steps: []placement.Step{
			{Kind: placement.StepMigrate, Slot: gs.Slots[0], From: host, To: "r1/p9", Reason: "evac:battery-low"},
			{Kind: placement.StepReserve, To: "r1/p8", Reason: "spare:pool"},
		}}
	}
	if got := m.cool.hold(evac(), splitAt+migrateCooldown/2).Steps; len(got) != 1 || got[0].Kind != placement.StepReserve {
		t.Fatalf("plan inside the split cooldown keeps %v, want the reserve step only", got)
	}
	if got := m.cool.hold(evac(), splitAt+migrateCooldown).Steps; len(got) != 2 {
		t.Fatalf("plan after the split cooldown keeps %v, want both steps", got)
	}
}

// TestSplitStepJournal pins what a split leaves in the region journal: the
// elastic plan's lifecycle, and the donor's own keyed.split entry.
func TestSplitStepJournal(t *testing.T) {
	c, r, gs := newKeyedRegion(t, 1)
	m := c.lookup("r1")
	onExecutor(c, m, func() {
		c.runPlan(m, &placement.Plan{Region: "r1", Cause: "elastic tally", Steps: []placement.Step{
			{Kind: placement.StepSplit, Slot: gs.Slots[0], Group: "tally", Donor: 0, Recipient: 2, Reason: "backpressure"},
		}})
	})
	want := []string{
		"plan.propose 1 steps elastic tally",
		"plan.step 1/1 ok=true split tally 0->2 backpressure",
		"plan.commit 1 steps elastic tally",
	}
	if got := planJournal(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("journal = %q\nwant      %q", got, want)
	}
	splits := 0
	for _, e := range r.Obs().Journal.Events() {
		if e.Kind == "keyed.split" {
			splits++
		}
	}
	if grp, _ := r.KeyedGroup("tally"); splits != 1 || len(grp.Table().Instances()) != 2 {
		t.Fatalf("%d keyed.split entries, %d active instances; want 1 and 2", splits, len(grp.Table().Instances()))
	}
}

// An instance whose host does not answer the elastic poll's ping gives no
// reading, so it is neither split nor merged. Here instance 1 is active,
// owns keys no tuple carries and its host is silent: read in-process, it
// would read rate 0 beside instance 0's traffic, turn cold and merge.
func TestElasticPollSkipsSilentHost(t *testing.T) {
	c, r, gs := newKeyedRegion(t, 2)
	m := c.lookup("r1")
	silent, _ := r.Placement(gs.Slots[1])
	r.Node(silent).Stop() // reachable, but it never answers
	sent := 20
	for poll := 0; poll < 2*minColdPolls; poll++ {
		onExecutor(c, m, func() { c.elasticTick(m) })
		for i := 0; i < 5; i++ {
			sent++
			r.Ingest("src", sent, 64, fmt.Sprintf("k%d", i%4))
		}
		for deadline := time.Now().Add(10 * time.Second); r.Outputs() < uint64(sent); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("outputs = %d, want %d", r.Outputs(), sent)
			}
		}
	}
	if got := planJournal(r); len(got) > 0 {
		t.Fatalf("the elastic poll acted on a group with a silent instance: %q", got)
	}
	if _, read := m.elastic.prev[gs.Instances[1]]; read || m.elastic.coldRuns["tally"][1] > 0 {
		t.Fatalf("the silent instance was read: cold polls %d", m.elastic.coldRuns["tally"][1])
	}
	if _, read := m.elastic.prev[gs.Instances[0]]; !read {
		t.Fatal("the answering instance was not read")
	}
}
