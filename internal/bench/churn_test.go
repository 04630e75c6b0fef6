package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mobistreams/internal/ft"
)

// churnPair runs the same churn schedule reactive-only and scheduler-on.
func churnPair(t *testing.T, scheme ft.Scheme, seed int64) (reactive, sched ChurnOutcome) {
	t.Helper()
	var err error
	reactive, err = RunChurn(ChurnScenario{Scheme: scheme, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err = RunChurn(ChurnScenario{Scheme: scheme, SchedulerOn: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return reactive, sched
}

// TestChurnSchedulerBeatsReactiveMS is the experiment's headline claim:
// under the same Poisson leave schedule (fixed seed: battery cliffs and
// commuter walks), the scheduler's planned migrations lose fewer tuples and
// incur less downtime than the paper's reactive-only recovery.
func TestChurnSchedulerBeatsReactiveMS(t *testing.T) {
	reactive, sched := churnPair(t, ft.MSScheme, 5)
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
	base := ChurnScenario{Seed: 5}
	rows := []ChurnOutcome{
		{Scheme: "ms", Mode: "reactive", Ingested: 100, Delivered: 80, Lost: 20, DowntimeSec: 12.5, Recoveries: 2},
		{Scheme: "ms", Mode: "scheduler", Ingested: 100, Delivered: 100, Migrations: 3},
	}
	var buf bytes.Buffer
	if err := WriteChurnJSON(&buf, base, rows); err != nil {
		t.Fatal(err)
	}
	var rep ChurnReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Lost != 20 || rep.Rows[1].Migrations != 3 {
		t.Fatalf("round-trip mismatch: %+v", rep)
	}
	if !strings.Contains(buf.String(), `"tuples_lost"`) {
		t.Fatal("artifact missing tuples_lost field")
	}
}
