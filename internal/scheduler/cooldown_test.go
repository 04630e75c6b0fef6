package scheduler

import (
	"testing"
	"time"

	"mobistreams/internal/placement"
)

// migrations filters a plan down to its migrate steps.
func migrations(p *placement.Plan) []placement.Step {
	var out []placement.Step
	for _, st := range p.Steps {
		if st.Kind == placement.StepMigrate {
			out = append(out, st)
		}
	}
	return out
}

// TestCooldownUnification is the regression test for the planner/elastic
// cooldown blind spot: with the shared ledger, a slot an elastic
// split/merge just touched cannot be migrated inside the window, and a
// just-migrated slot cannot be split or merged — previously each policy
// tracked its own cooldowns and saw nothing of the other's.
func TestCooldownUnification(t *testing.T) {
	ledger := newCooldowns()
	planner := NewPlanner(placement.New(), ledger)
	pol := &ElasticPolicy{Cooldown: 10 * time.Second, Cooldowns: ledger, Scope: "r1"}

	stats := func(backlog int) []InstanceStat {
		return []InstanceStat{
			{Instance: "agg#0", Index: 0, Slot: "s1", Active: true, Backlog: backlog},
			{Instance: "agg#1", Index: 1, Slot: "s9", Active: false},
		}
	}
	snap := func(now time.Duration) placement.Snapshot {
		return placement.Snapshot{
			Region:  "r1",
			Now:     now,
			Domains: []placement.Domain{{ID: 0}},
			Phones: []placement.Phone{
				{ID: "host", BatteryFraction: 0.05, BatteryJoules: 5},
				{ID: "idle", Idle: true, BatteryFraction: 0.9},
			},
			Slots: []placement.Assignment{{Slot: "s1", Phone: "host"}},
		}
	}

	// 1. The elastic policy splits the instance on slot s1 at t=100s.
	act := pol.Plan(100*time.Second, "agg", stats(100))
	if act == nil || !act.Split {
		t.Fatalf("expected a split, got %+v", act)
	}

	// 2. Five seconds later the planner sees the host of s1 at risk — but
	// the slot's state is mid-flight from the split, so the shared ledger
	// must hold the migration back.
	if plan := migrations(planner.Plan(snap(105 * time.Second))); len(plan) != 0 {
		t.Fatalf("slot s1 migrated %v inside the split cooldown", plan)
	}

	// 3. Past the window the migration is planned; the executor reports
	// the step as it attempts it.
	plan := migrations(planner.Plan(snap(200 * time.Second)))
	if len(plan) != 1 || plan[0].Slot != "s1" {
		t.Fatalf("expected migration of s1 after cooldown, got %v", plan)
	}
	planner.Attempted("r1", plan[0].Slot, 200*time.Second)

	// 4. Now the roles flip: the group cooldown (10 s, last action t=100s)
	// has long expired, but slot s1 was just migrated — the split must
	// wait even though the instance is saturated again.
	if act := pol.Plan(205*time.Second, "agg", stats(100)); act != nil {
		t.Fatalf("instance on s1 split %+v inside the migration cooldown", act)
	}

	// 5. Once s1's migration cooldown lapses, the split proceeds.
	if act := pol.Plan(245*time.Second, "agg", stats(100)); act == nil || !act.Split {
		t.Fatalf("expected split after migration cooldown, got %+v", act)
	}

	// Control: a policy without the shared ledger exhibits the old blind
	// spot — it happily splits right after step 3's migration.
	blind := &ElasticPolicy{Cooldown: 10 * time.Second}
	if act := blind.Plan(205*time.Second, "agg", stats(100)); act == nil {
		t.Fatal("control policy without shared ledger should not be held back")
	}
}
