package controller

import (
	"strings"
	"testing"

	"mobistreams/internal/ft"
	"mobistreams/internal/simnet"
)

// fixture is a four-slot chain n1 -> n2 -> n3 -> n4 hosted on p1..p4,
// with one idle phone (p5) and one warm spare (p6), v3 committed after one
// earlier catch-up. Each slot's checkpoint chain has two copies; the lost
// phones' copies are dropped, as the controller drops holders it noted
// failed.
func fixture(scheme ft.Scheme, lost ...simnet.NodeID) *snapshot {
	s := &snapshot{
		Region: "r1",
		Scheme: scheme,
		Lost:   lost,
		Placement: map[string]simnet.NodeID{
			"n1": "p1", "n2": "p2", "n3": "p3", "n4": "p4",
		},
		Order:       []string{"n1", "n2", "n3", "n4"},
		Sources:     []string{"n1"},
		Idle:        []simnet.NodeID{"p5"},
		Spares:      []simnet.NodeID{"p6"},
		Committed:   3,
		Epoch:       1,
		Holders:     make(map[string][]simnet.NodeID),
		FailedTotal: len(lost),
	}
	copies := map[string][]simnet.NodeID{
		"n1": {"p3", "p5"}, "n2": {"p4", "p6"}, "n3": {"p1", "p5"}, "n4": {"p2", "p6"},
	}
	gone := make(map[simnet.NodeID]bool)
	for _, id := range lost {
		gone[id] = true
	}
	for _, slot := range s.lostSlots() {
		for _, c := range copies[slot] {
			if !gone[c] {
				s.Holders[slot] = append(s.Holders[slot], c)
			}
		}
	}
	return s
}

// TestRecoveryPlanGolden pins every scheme's recovery decision, step by
// step, against the same failure cases. Plans are pure functions of the
// snapshot: no region, network or clock. Against the fixture, dist-2
// tolerates two failed phones, ms as many lost slots as it has idle phones
// (two: p5 and the spare p6), rep-2 one, base and local none.
func TestRecoveryPlanGolden(t *testing.T) {
	one := func(lost ...simnet.NodeID) func(ft.Scheme) []*snapshot {
		return func(sc ft.Scheme) []*snapshot { return []*snapshot{fixture(sc, lost...)} }
	}
	schemes := []ft.Scheme{ft.BaseScheme, ft.LocalScheme, ft.Rep2Scheme, ft.Dist(2), ft.MSScheme}
	cases := []struct {
		name string
		// windows are the snapshots of successive debounce windows.
		windows func(ft.Scheme) []*snapshot
		want    map[string]string // by scheme
	}{
		{name: "k inside tolerance",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=2 recover base k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill base has no replacement story\n",
				"local": "" +
					"plan r1 v3 steps=2 recover local k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill local has no replacement story\n",
				"rep-2": "" +
					"plan r1 v3 steps=2 recover rep-2 k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 promote n2 standby\n",
				"dist-2": "" +
					"plan r1 v3 steps=3 recover dist-2 k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 fetch-restore n2 v3 p4->p5 [p4 p6] peer-copy\n",
				"ms": "" +
					"plan r1 v3 steps=6 recover ms k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 pause [p1 p5 p3 p4] region-wide\n" +
					" 3 restore v3 [p1 p5 p3 p4] local-mrc\n" +
					" 4 replay v3 e2 [p1] catch-up\n" +
					" 5 resume [p4 p3 p5 p1] downstream-first\n",
			},
			windows: one("p2")},
		{name: "k at tolerance",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=2 recover base k=2\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill base has no replacement story\n",
				"local": "" +
					"plan r1 v3 steps=2 recover local k=2\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill local has no replacement story\n",
				"rep-2": "" +
					"plan r1 v3 steps=2 recover rep-2 k=2\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill 2 failed, rep-2 tolerates 1\n",
				"dist-2": "" +
					"plan r1 v3 steps=5 recover dist-2 k=2\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 fetch-restore n2 v3 p4->p5 [p4 p6] peer-copy\n" +
					" 3 activate n3 p6 replace:p3\n" +
					" 4 fetch-restore n3 v3 p1->p6 [p1 p5] peer-copy\n",
				"ms": "" +
					"plan r1 v3 steps=7 recover ms k=2\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 activate n3 p6 replace:p3\n" +
					" 3 pause [p1 p5 p6 p4] region-wide\n" +
					" 4 restore v3 [p1 p5 p6 p4] local-mrc\n" +
					" 5 replay v3 e2 [p1] catch-up\n" +
					" 6 resume [p4 p6 p5 p1] downstream-first\n",
			},
			windows: one("p2", "p3")},
		{name: "k beyond tolerance",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=2 recover base k=3\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill base has no replacement story\n",
				"local": "" +
					"plan r1 v3 steps=2 recover local k=3\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill local has no replacement story\n",
				"rep-2": "" +
					"plan r1 v3 steps=2 recover rep-2 k=3\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill 3 failed, rep-2 tolerates 1\n",
				"dist-2": "" +
					"plan r1 v3 steps=2 recover dist-2 k=3\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill 3 failed, dist-2 with 2 idle phones\n",
				"ms": "" +
					"plan r1 v3 steps=2 recover ms k=3\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill 3 slots lost, 2 idle phones\n",
			},
			windows: one("p2", "p3", "p4")},
		{name: "no idle phone",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=1 recover base k=1\n" +
					" 0 kill base has no replacement story\n",
				"local": "" +
					"plan r1 v3 steps=1 recover local k=1\n" +
					" 0 kill local has no replacement story\n",
				"rep-2": "" +
					"plan r1 v3 steps=1 recover rep-2 k=1\n" +
					" 0 promote n2 standby\n",
				"dist-2": "" +
					"plan r1 v3 steps=1 recover dist-2 k=1\n" +
					" 0 kill 1 failed, dist-2 with 0 idle phones\n",
				"ms": "" +
					"plan r1 v3 steps=1 recover ms k=1\n" +
					" 0 kill 1 slots lost, 0 idle phones\n",
			},
			windows: func(sc ft.Scheme) []*snapshot {
				s := fixture(sc, "p2")
				s.Idle, s.Spares = nil, nil
				return []*snapshot{s}
			}},
		{name: "no surviving blob holder",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=2 recover base k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill base has no replacement story\n",
				"local": "" +
					"plan r1 v3 steps=2 recover local k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill local has no replacement story\n",
				"rep-2": "" +
					"plan r1 v3 steps=2 recover rep-2 k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 promote n2 standby\n",
				"dist-2": "" +
					"plan r1 v3 steps=2 recover dist-2 k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill no surviving copy of n2 v3\n",
				"ms": "" +
					"plan r1 v3 steps=6 recover ms k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 pause [p1 p5 p3 p4] region-wide\n" +
					" 3 restore v3 [p1 p5 p3 p4] local-mrc\n" +
					" 4 replay v3 e2 [p1] catch-up\n" +
					" 5 resume [p4 p3 p5 p1] downstream-first\n",
			},
			windows: func(sc ft.Scheme) []*snapshot {
				s := fixture(sc, "p2")
				s.Holders["n2"] = nil
				return []*snapshot{s}
			}},
		{name: "failed phone hosts no slot",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=0 recover base k=1\n",
				"local": "" +
					"plan r1 v3 steps=0 recover local k=1\n",
				"rep-2": "" +
					"plan r1 v3 steps=0 recover rep-2 k=1\n",
				"dist-2": "" +
					"plan r1 v3 steps=0 recover dist-2 k=1\n",
				"ms": "" +
					"plan r1 v3 steps=0 recover ms k=1\n",
			},
			windows: one("p9")},
		{name: "failures trickle in across debounce windows",
			want: map[string]string{
				"base": "" +
					"plan r1 v3 steps=2 recover base k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill base has no replacement story\n" +
					"plan r1 v3 steps=1 recover base k=1\n" +
					" 0 kill base has no replacement story\n" +
					"plan r1 v3 steps=1 recover base k=1\n" +
					" 0 kill base has no replacement story\n",
				"local": "" +
					"plan r1 v3 steps=2 recover local k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 kill local has no replacement story\n" +
					"plan r1 v3 steps=1 recover local k=1\n" +
					" 0 kill local has no replacement story\n" +
					"plan r1 v3 steps=1 recover local k=1\n" +
					" 0 kill local has no replacement story\n",
				"rep-2": "" +
					"plan r1 v3 steps=2 recover rep-2 k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 promote n2 standby\n" +
					"plan r1 v3 steps=1 recover rep-2 k=1\n" +
					" 0 kill 2 failed, rep-2 tolerates 1\n" +
					"plan r1 v3 steps=1 recover rep-2 k=1\n" +
					" 0 kill 3 failed, rep-2 tolerates 1\n",
				"dist-2": "" +
					"plan r1 v3 steps=3 recover dist-2 k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 fetch-restore n2 v3 p4->p5 [p4 p6] peer-copy\n" +
					"plan r1 v3 steps=2 recover dist-2 k=1\n" +
					" 0 activate n3 p6 replace:p3\n" +
					" 1 fetch-restore n3 v3 p1->p6 [p1 p5] peer-copy\n" +
					"plan r1 v3 steps=1 recover dist-2 k=1\n" +
					" 0 kill 3 failed, dist-2 with 1 idle phones\n",
				"ms": "" +
					"plan r1 v3 steps=6 recover ms k=1\n" +
					" 0 release p6 dom0 spare:reclaim\n" +
					" 1 activate n2 p5 replace:p2\n" +
					" 2 pause [p1 p5 p3 p4] region-wide\n" +
					" 3 restore v3 [p1 p5 p3 p4] local-mrc\n" +
					" 4 replay v3 e2 [p1] catch-up\n" +
					" 5 resume [p4 p3 p5 p1] downstream-first\n" +
					"plan r1 v3 steps=5 recover ms k=1\n" +
					" 0 activate n3 p6 replace:p3\n" +
					" 1 pause [p1 p5 p6 p4] region-wide\n" +
					" 2 restore v3 [p1 p5 p6 p4] local-mrc\n" +
					" 3 replay v3 e3 [p1] catch-up\n" +
					" 4 resume [p4 p6 p5 p1] downstream-first\n" +
					"plan r1 v3 steps=5 recover ms k=1\n" +
					" 0 activate n4 p7 replace:p4\n" +
					" 1 pause [p1 p5 p6 p7] region-wide\n" +
					" 2 restore v3 [p1 p5 p6 p7] local-mrc\n" +
					" 3 replay v3 e4 [p1] catch-up\n" +
					" 4 resume [p7 p6 p5 p1] downstream-first\n",
			},
			windows: func(sc ft.Scheme) []*snapshot {
				// Each window sees what the previous plan left: the lost
				// slot re-hosted on the next idle phone, the spare released
				// and drawn, one more phone in the burst, and (under ms) the
				// next catch-up epoch. A third idle phone, p7, has joined.
				// Base, local and rep-2 die in an earlier window, so their
				// later windows never run; the table shows them anyway.
				first := fixture(sc, "p2")
				second := fixture(sc, "p3")
				second.Placement["n2"] = "p5"
				second.Idle, second.Spares = []simnet.NodeID{"p6", "p7"}, nil
				second.FailedTotal, second.Epoch = 2, 2
				third := fixture(sc, "p4")
				third.Placement["n2"], third.Placement["n3"] = "p5", "p6"
				third.Idle, third.Spares = []simnet.NodeID{"p7"}, nil
				third.FailedTotal, third.Epoch = 3, 3
				return []*snapshot{first, second, third}
			}},
	}
	for _, tc := range cases {
		for _, scheme := range schemes {
			var b strings.Builder
			for _, s := range tc.windows(scheme) {
				b.WriteString(recoveryPlan(s).Encode())
			}
			if got, want := b.String(), tc.want[scheme.String()]; got != want {
				t.Errorf("%s/%s: plan drifted from golden output.\ngot:\n%swant:\n%s", tc.name, scheme, got, want)
			}
		}
	}
}

// TestHandoffPlanGolden pins the departure handoff (§III-E): the departing
// phone hands each slot to the next idle phone and then leaves the region;
// with no idle phone its slot stays put in urgent mode and the phone stays
// registered.
func TestHandoffPlanGolden(t *testing.T) {
	noIdle := fixture(ft.MSScheme, "p3")
	noIdle.Idle, noIdle.Spares = nil, nil
	cases := []struct {
		name string
		s    *snapshot
		want string
	}{
		{"slot host departs", fixture(ft.MSScheme, "p3"), "" +
			"plan r1 v0 steps=3 depart p3\n" +
			" 0 release p6 dom0 spare:reclaim\n" +
			" 1 handoff n3 p3->p5 depart\n" +
			" 2 unregister p3 departed\n"},
		{"no idle phone", noIdle, "" +
			"plan r1 v0 steps=0 depart p3 (no idle phone: n3 stays in urgent mode)\n"},
		{"departing phone hosts no slot", fixture(ft.MSScheme, "p9"), "" +
			"plan r1 v0 steps=1 depart p9\n" +
			" 0 unregister p9 departed\n"},
	}
	for _, tc := range cases {
		if got := handoffPlan(tc.s).Encode(); got != tc.want {
			t.Errorf("%s: plan drifted from golden output.\ngot:\n%swant:\n%s", tc.name, got, tc.want)
		}
	}
}
