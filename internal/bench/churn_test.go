package bench

import (
	"strings"
	"testing"

	"mobistreams/internal/ft"
)

// churnPair runs the churn experiment's schedule reactive-only and
// planner-on for one scheme.
func churnPair(t *testing.T, scheme ft.Scheme, seed int64) (reactive, sched ChurnOutcome) {
	t.Helper()
	s := churnScenario
	s.Seed = seed
	rows, err := churnComparison(s, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return rows[0], rows[1]
}

// TestChurnSchedulerBeatsReactiveMS is the experiment's headline claim:
// under the same Poisson leave schedule (fixed seed: battery cliffs and
// commuter walks), the scheduler's planned migrations lose fewer tuples and
// incur less downtime than the paper's reactive-only recovery.
//
// Seed 3's schedule (five chronic-battery recoveries) costs the reactive
// arm 36-70 tuples. Seed 5's bit only when no checkpoint committed between
// its recoveries, so that each replayed from the first: a coincidence of
// recovery end and checkpoint tick that a recovery 2 s shorter breaks in
// about half the runs, leaving the arm 1-7 tuples short.
func TestChurnSchedulerBeatsReactiveMS(t *testing.T) {
	reactive, sched := churnPair(t, ft.MSScheme, 3)
	t.Logf("reactive:  %+v", reactive)
	t.Logf("scheduler: %+v", sched)

	// The fixed seed produces a churn schedule that genuinely bites: the
	// reactive run must have performed recoveries and lost real output.
	if reactive.Recoveries == 0 {
		t.Fatal("reactive run performed no recoveries; churn schedule did not bite")
	}
	if reactive.Lost < 20 {
		t.Fatalf("reactive run lost only %d tuples; churn schedule did not bite", reactive.Lost)
	}
	if sched.Migrations == 0 {
		t.Fatal("scheduler run performed no migrations")
	}
	if sched.Dead {
		t.Fatal("scheduler run killed the region")
	}
	// Headline: fewer tuples lost, less downtime, with wide margins so
	// scaled-clock jitter cannot flip the comparison.
	if sched.Lost*2 >= reactive.Lost {
		t.Fatalf("scheduler lost %d tuples vs reactive %d: want less than half", sched.Lost, reactive.Lost)
	}
	if sched.DowntimeSec*2 >= reactive.DowntimeSec {
		t.Fatalf("scheduler downtime %.1fs vs reactive %.1fs: want less than half", sched.DowntimeSec, reactive.DowntimeSec)
	}
	// Planned migrations must not duplicate acknowledged output.
	if sched.Duplicates != 0 {
		t.Fatalf("scheduler run published %d duplicate outputs", sched.Duplicates)
	}
}

// TestChurnSchedulerGivesRep2AMobilityStory pins the cross-scheme win:
// rep-2 tolerates exactly one failure reactively, so sustained churn kills
// the region — while proactive migration sidesteps the failures entirely.
func TestChurnSchedulerGivesRep2AMobilityStory(t *testing.T) {
	reactive, sched := churnPair(t, ft.Rep2Scheme, 5)
	t.Logf("reactive:  %+v", reactive)
	t.Logf("scheduler: %+v", sched)
	if sched.Dead {
		t.Fatal("rep-2 with scheduler died under churn")
	}
	if sched.Migrations == 0 {
		t.Fatal("scheduler run performed no migrations")
	}
	if sched.Lost >= reactive.Lost {
		t.Fatalf("scheduler lost %d tuples vs reactive %d: want fewer", sched.Lost, reactive.Lost)
	}
}

func TestChurnJSONRoundTrips(t *testing.T) {
	got, raw := roundTrip(t, "churn", []ChurnOutcome{
		{Scheme: "ms", Mode: "reactive", Ingested: 100, Delivered: 80, Lost: 20, DowntimeSec: 12.5, Recoveries: 2},
		{Scheme: "ms", Mode: "planner", Ingested: 100, Delivered: 100, Migrations: 3},
	})
	if len(got) != 2 || got[0].Lost != 20 || got[1].Migrations != 3 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if !strings.Contains(raw, `"tuples_lost"`) {
		t.Fatal("results missing tuples_lost field")
	}
}
