package placement

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/simnet"
)

// goldenSnapshot is a two-domain region with one three-slot chain: the
// chain's tail sits on a draining phone in the wrong domain, so the plan
// must evacuate it into the domain holding the rest of the chain and then
// top the domain's spare pool up.
func goldenSnapshot() Snapshot {
	return Snapshot{
		Region: "r1",
		Now:    60 * time.Second,
		Domains: []Domain{
			{ID: 0, Members: 4, Present: 4},
			{ID: 1, Members: 2, Present: 2},
		},
		Phones: []Phone{
			{ID: "p1", Domain: 0, BatteryJoules: 100, BatteryFraction: 0.90, DrainWatts: 0.05},
			{ID: "p2", Domain: 0, BatteryJoules: 100, BatteryFraction: 0.85, DrainWatts: 0.05},
			{ID: "p3", Domain: 0, Idle: true, BatteryFraction: 0.90},
			{ID: "p4", Domain: 0, Idle: true, BatteryFraction: 0.80},
			{ID: "p5", Domain: 1, BatteryJoules: 10, BatteryFraction: 0.50, DrainWatts: 0.5},
			{ID: "p6", Domain: 1, Idle: true, BatteryFraction: 0.85},
		},
		Slots: []Assignment{
			{Slot: "n1", Phone: "p1"},
			{Slot: "n2", Phone: "p2"},
			{Slot: "n3", Phone: "p5"},
		},
		Edges: []Edge{
			{From: "n1", To: "n2", Weight: 1},
			{From: "n2", To: "n3", Weight: 1},
		},
	}
}

// TestPlanGolden pins the deterministic plan output: the same topology +
// telemetry snapshot must always produce byte-identical plan encodings,
// from this engine and from any fresh engine.
func TestPlanGolden(t *testing.T) {
	const want = "plan r1 v1 steps=2\n" +
		" 0 migrate n3 p5->p3 dom0 evac:battery(20s)\n" +
		" 1 reserve p4 dom0 spare:pool\n"

	got := New().Plan(goldenSnapshot()).Encode()
	if got != want {
		t.Fatalf("plan drifted from golden output.\ngot:\n%swant:\n%s", got, want)
	}
	if again := New().Plan(goldenSnapshot()).Encode(); again != got {
		t.Fatalf("identical snapshots produced different plans:\n%s\nvs\n%s", got, again)
	}
}

// TestPlanGoldenSingleDomain pins the degenerate topology: with one WiFi
// channel the pack pass has nothing to consolidate, so the plan is the
// forecast evacuation (onto the warm spare the pool exists for) followed by
// the pool top-up.
func TestPlanGoldenSingleDomain(t *testing.T) {
	s := goldenSnapshot()
	s.Domains = []Domain{{ID: 0, Members: 6, Present: 6}}
	for i := range s.Phones {
		s.Phones[i].Domain = 0
	}
	s.Phones[3].Idle, s.Phones[3].Spare = false, true // p4 is a warm spare

	const want = "plan r1 v1 steps=2\n" +
		" 0 migrate n3 p5->p4 dom0 evac:battery(20s)\n" +
		" 1 reserve p3 dom0 spare:pool\n"

	got := New().Plan(s).Encode()
	if got != want {
		t.Fatalf("plan drifted from golden output.\ngot:\n%swant:\n%s", got, want)
	}
}

// TestPlanEvacuations is the per-phone hazard table on a one-domain region:
// which hosts are evacuated, why, in what order, and onto which targets.
func TestPlanEvacuations(t *testing.T) {
	host := func(id string, joules, fraction, drain float64) Phone {
		return Phone{ID: simnet.NodeID("r1/" + id), BatteryJoules: joules, BatteryFraction: fraction, DrainWatts: drain}
	}
	idle := func(id string, fraction float64) Phone {
		return Phone{ID: simnet.NodeID("r1/" + id), Idle: true, BatteryJoules: 20e3 * fraction, BatteryFraction: fraction}
	}
	walker := func(id string, x, vx, vy float64) Phone {
		p := host(id, 18e3, 0.9, 0)
		p.X, p.VelX, p.VelY = x, vx, vy
		return p
	}
	cases := []struct {
		name   string
		radius float64
		phones []Phone
		slots  []Assignment
		want   []string // encoded steps, in order
	}{
		{
			name: "battery-low host moves to the strongest idle phone",
			phones: []Phone{
				host("p1", 50, 0.04, 0), host("p2", 18e3, 0.9, 0),
				idle("p3", 0.4), idle("p4", 0.9),
			},
			slots: []Assignment{{"n1", "r1/p1"}, {"n2", "r1/p2"}},
			want: []string{
				"migrate n1 r1/p1->r1/p4 dom0 evac:battery-low",
				"reserve r1/p3 dom0 spare:pool",
			},
		},
		{
			// 100 J at 2 W dies in 50 s, inside the 75 s horizon; the
			// same drain on 1000 J lasts 500 s and stays put.
			name: "battery-drain inside the horizon",
			phones: []Phone{
				host("p1", 100, 0.5, 2), host("p2", 1000, 0.5, 2),
				idle("p3", 0.9),
			},
			slots: []Assignment{{"n1", "r1/p1"}, {"n2", "r1/p2"}},
			want:  []string{"migrate n1 r1/p1->r1/p3 dom0 evac:battery(50s)"},
		},
		{
			// 60 m out walking radially outward at 2 m/s crosses the
			// 100 m boundary in 20 s; inbound and tangential walkers
			// never cross.
			name:   "departing host; inbound and tangential stay",
			radius: 100,
			phones: []Phone{
				walker("p1", 60, 2, 0), walker("p2", 60, -2, 0), walker("p3", 60, 0, 5),
				idle("p4", 0.9),
			},
			slots: []Assignment{{"n1", "r1/p1"}, {"n2", "r1/p2"}, {"n3", "r1/p3"}},
			want:  []string{"migrate n1 r1/p1->r1/p4 dom0 evac:trajectory(20s)"},
		},
		{
			name: "no boundary configured disables the trajectory forecast",
			phones: []Phone{
				walker("p1", 60, 2, 0), idle("p2", 0.9),
			},
			slots: []Assignment{{"n1", "r1/p1"}},
			want:  []string{"reserve r1/p2 dom0 spare:pool"},
		},
		{
			// Evacuating onto the next phone to die just doubles the
			// work: a weak idle and a draining idle are both refused.
			name: "an at-risk phone is never a target",
			phones: []Phone{
				host("p1", 50, 0.04, 0),
				idle("p2", 0.05),
				{ID: "r1/p3", Idle: true, BatteryJoules: 60, BatteryFraction: 0.5, DrainWatts: 2},
			},
			slots: []Assignment{{"n1", "r1/p1"}},
			want:  nil,
		},
		{
			// Moving the whole region at once would itself be the
			// disruption the planner exists to avoid: five hosts are
			// doomed, only maxMigrations (4) move. The hosts already
			// below the floor go first, then the drains by time left,
			// so the one with 70 s to live waits for the next plan.
			name: "migrations per plan are bounded, most urgent first",
			phones: []Phone{
				host("p1", 140, 0.5, 2), host("p2", 50, 0.04, 0),
				host("p3", 100, 0.5, 2), host("p4", 40, 0.03, 0),
				host("p5", 120, 0.5, 2),
				idle("p6", 0.9), idle("p7", 0.9), idle("p8", 0.9),
				idle("p9", 0.9), idle("pa", 0.9),
			},
			slots: []Assignment{
				{"n1", "r1/p1"}, {"n2", "r1/p2"}, {"n3", "r1/p3"},
				{"n4", "r1/p4"}, {"n5", "r1/p5"},
			},
			want: []string{
				"migrate n2 r1/p2->r1/p6 dom0 evac:battery-low",
				"migrate n4 r1/p4->r1/p7 dom0 evac:battery-low",
				"migrate n3 r1/p3->r1/p8 dom0 evac:battery(50s)",
				"migrate n5 r1/p5->r1/p9 dom0 evac:battery(1m0s)",
				"reserve r1/pa dom0 spare:pool",
			},
		},
		{
			name: "each step gets its own target",
			phones: []Phone{
				host("p1", 40, 0.03, 0), host("p2", 50, 0.04, 0),
				idle("p8", 0.9), idle("p9", 0.9),
			},
			slots: []Assignment{{"n1", "r1/p1"}, {"n2", "r1/p2"}},
			want: []string{
				"migrate n1 r1/p1->r1/p8 dom0 evac:battery-low",
				"migrate n2 r1/p2->r1/p9 dom0 evac:battery-low",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := New().Plan(Snapshot{
				Region: "r1", Now: 100 * time.Second, RadiusM: tc.radius,
				Domains: []Domain{{ID: 0}}, Phones: tc.phones, Slots: tc.slots,
			})
			var got []string
			for _, st := range plan.Steps {
				got = append(got, st.String())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("steps = %q\nwant    %q", got, tc.want)
			}
		})
	}
}

// TestTimeToBoundary pins the one trajectory extrapolation in the tree.
func TestTimeToBoundary(t *testing.T) {
	s := &Snapshot{RadiusM: 100}
	cases := []struct {
		name     string
		p        Phone
		want     time.Duration
		crossing bool
	}{
		{"radially outward", Phone{X: 60, VelX: 2}, 20 * time.Second, true},
		{"inbound", Phone{X: 60, VelX: -2}, 0, false},
		{"tangential", Phone{X: 60, VelY: 5}, 0, false},
		{"stationary", Phone{X: 60}, 0, false},
		{"already out", Phone{X: 120}, 0, true},
		{"from the centre", Phone{VelY: 4}, 25 * time.Second, true},
	}
	for _, tc := range cases {
		if d, ok := timeToBoundary(s, &tc.p); d != tc.want || ok != tc.crossing {
			t.Errorf("%s: timeToBoundary = %v/%v, want %v/%v", tc.name, d, ok, tc.want, tc.crossing)
		}
	}
	if _, ok := timeToBoundary(&Snapshot{}, &Phone{X: 60, VelX: 2}); ok {
		t.Error("boundary-less region predicted a crossing")
	}
}

// TestPlanConcurrentRegions pins that one Engine may serve many regions
// concurrently (the controller runs one planning loop per region against a
// shared instance), each with its own departure-rate estimate. Run under
// -race this fails loudly if the per-region state is mutated unguarded.
func TestPlanConcurrentRegions(t *testing.T) {
	e := New()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := goldenSnapshot()
			s.Region = fmt.Sprintf("r%d", r)
			for i := 0; i < 100; i++ {
				s.Now += time.Second
				// Only region 0 churns: one domain-0 departure a second.
				if r == 0 {
					s.Domains[0].Departures++
				}
				plan := e.Plan(s)
				hot := false
				for _, st := range plan.Steps {
					hot = hot || st.Reason == "spare:churn"
				}
				if r != 0 && hot {
					t.Errorf("region %s inherited another region's departure rate: %s", s.Region, plan.Encode())
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestGroupSlots(t *testing.T) {
	slots := []Assignment{
		{Slot: "a1"}, {Slot: "a2"}, {Slot: "b1"}, {Slot: "b2"}, {Slot: "solo"},
	}
	edges := []Edge{
		{From: "a1", To: "a2"},
		{From: "b1", To: "b2"},
		{From: "b2", To: "zz"}, // edge to an unassigned slot is ignored
	}
	got := groupSlots(slots, edges)
	want := [][]string{{"a1", "a2"}, {"b1", "b2"}, {"solo"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groupSlots = %v, want %v", got, want)
	}
}

// TestPackSpreadsIndependentGroups: two chains scattered across two
// domains must each be packed whole, into *different* domains — packing
// both onto one channel would trade cross-channel hops for a hot cell.
func TestPackSpreadsIndependentGroups(t *testing.T) {
	s := Snapshot{
		Region:  "r1",
		Now:     30 * time.Second,
		Domains: []Domain{{ID: 0}, {ID: 1}},
		Phones: []Phone{
			{ID: "p1", Domain: 0, BatteryFraction: 0.9},
			{ID: "p2", Domain: 1, BatteryFraction: 0.9},
			{ID: "p3", Domain: 0, BatteryFraction: 0.9},
			{ID: "p4", Domain: 1, BatteryFraction: 0.9},
			{ID: "p5", Domain: 0, Idle: true, BatteryFraction: 0.9},
			{ID: "p6", Domain: 0, Idle: true, BatteryFraction: 0.8},
			{ID: "p7", Domain: 1, Idle: true, BatteryFraction: 0.9},
			{ID: "p8", Domain: 1, Idle: true, BatteryFraction: 0.8},
		},
		Slots: []Assignment{
			{Slot: "na1", Phone: "p1"},
			{Slot: "na2", Phone: "p2"},
			{Slot: "nb1", Phone: "p3"},
			{Slot: "nb2", Phone: "p4"},
		},
		Edges: []Edge{
			{From: "na1", To: "na2"},
			{From: "nb1", To: "nb2"},
		},
	}
	e := New()
	f := e.runForecast(&s)
	pk := e.packGroups(&s, f)
	if pk.domainOf["na1"] != pk.domainOf["na2"] {
		t.Fatalf("chain A split across domains: %v", pk.domainOf)
	}
	if pk.domainOf["nb1"] != pk.domainOf["nb2"] {
		t.Fatalf("chain B split across domains: %v", pk.domainOf)
	}
	if pk.domainOf["na1"] == pk.domainOf["nb1"] {
		t.Fatalf("independent chains stacked on one domain: %v", pk.domainOf)
	}
}

// TestPackSpillsOnlyWhenNoDomainFits: a group larger than any single
// domain's capacity straddles domains, but keeps incumbents in place.
func TestPackSpillsOnlyWhenNoDomainFits(t *testing.T) {
	s := Snapshot{
		Region:  "r1",
		Domains: []Domain{{ID: 0}, {ID: 1}},
		Phones: []Phone{
			{ID: "p1", Domain: 0, BatteryFraction: 0.9},
			{ID: "p2", Domain: 0, BatteryFraction: 0.9},
			{ID: "p3", Domain: 1, BatteryFraction: 0.9},
			{ID: "p4", Domain: 0, Idle: true, BatteryFraction: 0.9},
			// Domain 1 has no idle capacity.
		},
		Slots: []Assignment{
			{Slot: "n1", Phone: "p1"},
			{Slot: "n2", Phone: "p2"},
			{Slot: "n3", Phone: "p3"},
			{Slot: "n4", Phone: "p3"}, // two slots share p3
		},
		Edges: []Edge{
			{From: "n1", To: "n2"}, {From: "n2", To: "n3"}, {From: "n3", To: "n4"},
		},
	}
	e := New()
	f := e.runForecast(&s)
	pk := e.packGroups(&s, f)
	// Whole group is 4 slots; domain 0 holds 2 incumbents + 1 idle = 3,
	// domain 1 holds 2 incumbents and nothing else. No domain fits all 4.
	if pk.domainOf["n1"] != 0 || pk.domainOf["n2"] != 0 {
		t.Fatalf("spill moved incumbents off domain 0: %v", pk.domainOf)
	}
	if pk.domainOf["n3"] != 0 && pk.domainOf["n3"] != 1 {
		t.Fatalf("n3 routed nowhere: %v", pk.domainOf)
	}
	moves := 0
	for _, need := range pk.needsHome {
		if need {
			moves++
		}
	}
	if moves > 1 {
		t.Fatalf("spill planned %d moves, want at most 1 (fill domain 0's idle)", moves)
	}
}

// TestForecastTrajectoryEvacuation: a phone walking toward the WiFi
// boundary is evacuated before it crosses, with a trajectory reason.
func TestForecastTrajectoryEvacuation(t *testing.T) {
	s := Snapshot{
		Region:  "r1",
		Now:     10 * time.Second,
		RadiusM: 100,
		Domains: []Domain{{ID: 0}, {ID: 1}},
		Phones: []Phone{
			// 80 m out, walking straight out at 1 m/s: crosses in 20 s.
			{ID: "p1", Domain: 0, BatteryFraction: 0.9, X: 80, VelX: 1},
			{ID: "p2", Domain: 0, Idle: true, BatteryFraction: 0.9},
			{ID: "p3", Domain: 1, BatteryFraction: 0.9},
		},
		Slots: []Assignment{{Slot: "n1", Phone: "p1"}},
	}
	plan := New().Plan(s)
	if len(plan.Steps) == 0 || plan.Steps[0].Kind != StepMigrate {
		t.Fatalf("no evacuation planned: %s", plan.Encode())
	}
	st := plan.Steps[0]
	if st.Slot != "n1" || st.To != "p2" || st.Reason != "evac:trajectory(20s)" {
		t.Fatalf("unexpected evacuation step: %s", st)
	}
}

// TestSpareChurnBoost: a domain whose observed departure rate runs hot
// gets an extra warm spare reserved with the churn reason.
func TestSpareChurnBoost(t *testing.T) {
	snap := func(now time.Duration, departs int64, spare bool) Snapshot {
		s := Snapshot{
			Region:  "r1",
			Now:     now,
			Domains: []Domain{{ID: 0, Departures: departs}, {ID: 1}},
			Phones: []Phone{
				{ID: "p1", Domain: 0, BatteryFraction: 0.9},
				{ID: "p2", Domain: 0, Idle: !spare, Spare: spare, BatteryFraction: 0.9},
				{ID: "p3", Domain: 0, Idle: true, BatteryFraction: 0.8},
				{ID: "p4", Domain: 1, Idle: true, BatteryFraction: 0.9},
			},
			Slots: []Assignment{{Slot: "n1", Phone: "p1"}},
		}
		return s
	}
	e := New()
	first := e.Plan(snap(30*time.Second, 0, false))
	if len(first.Steps) != 1 || first.Steps[0].Kind != StepReserve || first.Steps[0].Reason != "spare:pool" {
		t.Fatalf("first plan should reserve one baseline spare: %s", first.Encode())
	}
	// Two departures in 30 s of domain 0: 4/min observed, EWMA 2/min —
	// over the 1.5/min boost threshold.
	second := e.Plan(snap(60*time.Second, 2, true))
	var churn *Step
	for i := range second.Steps {
		if second.Steps[i].Kind == StepReserve && second.Steps[i].Domain == 0 {
			churn = &second.Steps[i]
		}
	}
	if churn == nil || churn.Reason != "spare:churn" {
		t.Fatalf("hot domain did not get a churn spare: %s", second.Encode())
	}
}

// TestSpareSurplusRelease: spares beyond the pool size are returned to the
// shared idle pool, weakest battery first.
func TestSpareSurplusRelease(t *testing.T) {
	s := Snapshot{
		Region:  "r1",
		Domains: []Domain{{ID: 0}, {ID: 1}},
		Phones: []Phone{
			{ID: "p1", Domain: 0, BatteryFraction: 0.9},
			{ID: "p2", Domain: 0, Spare: true, BatteryFraction: 0.9},
			{ID: "p3", Domain: 0, Spare: true, BatteryFraction: 0.4},
			{ID: "p4", Domain: 1, Idle: true, BatteryFraction: 0.9},
		},
		Slots: []Assignment{{Slot: "n1", Phone: "p1"}},
	}
	plan := New().Plan(s)
	if len(plan.Steps) != 1 {
		t.Fatalf("want exactly one release, got: %s", plan.Encode())
	}
	st := plan.Steps[0]
	if st.Kind != StepRelease || st.To != "p3" || st.Reason != "spare:surplus" {
		t.Fatalf("unexpected step: %s", st)
	}
}
