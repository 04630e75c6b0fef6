package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPlacementPlannerBeatsReactiveCrossChannel is the planner acceptance
// check at test scale: round-robin channel assignment scatters every
// pipeline chain across WiFi channels at start, so the reactive arm — which
// only ever replaces a lost phone — leaves each hop burning airtime in two
// cells for the whole run, while the planner's pack-to-empty pass
// consolidates each chain into a single channel domain and the measured
// cross-channel share drops well below the reactive arm's. Plan execution
// rides the exactly-once migration path, so the planner arm must not
// publish a single duplicate.
func TestPlacementPlannerBeatsReactiveCrossChannel(t *testing.T) {
	small := placementScenario
	small.Phones = 48
	small.Pipelines = 2
	small.CheckpointPeriod = 20 * time.Second
	small.Measure = 60 * time.Second
	small.Drain = 10 * time.Second
	small.MeanLeave = 30 * time.Second
	small.Seed = 5
	if raceEnabled {
		// Race instrumentation multiplies the cost of every phone
		// goroutine; at 48 phones the pair of arms takes minutes of wall
		// time. The race build only checks the exactly-once and
		// arm-separation invariants, so a smaller population suffices.
		small.Phones = 24
		small.Measure = 40 * time.Second
	}
	// The runs pace simulated time against the wall clock, so CPU
	// contention from sibling packages can stall a plan's code-ship phase
	// past a tick boundary and smear the airtime split. Retry before
	// declaring a regression: a planner that genuinely stopped packing
	// fails every attempt, a scheduling stall does not.
	const attempts = 3
	var lastErr string
	for i := 0; i < attempts; i++ {
		rows, err := churnComparison(small, small.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		reactive, planner := rows[0], rows[1]
		t.Logf("attempt %d reactive: %+v", i+1, reactive)
		t.Logf("attempt %d planner:  %+v", i+1, planner)

		// Exactly-once across plan-step migrations is not load-dependent:
		// any duplicate is a protocol bug, never jitter.
		if planner.Duplicates != 0 {
			t.Fatalf("planner run published %d duplicate outputs", planner.Duplicates)
		}
		if reactive.Delivered == 0 || planner.Delivered == 0 {
			t.Fatal("a run delivered nothing")
		}
		if reactive.PlanCommits != 0 || reactive.PlanAborts != 0 {
			t.Fatalf("reactive arm ran the planner: commits=%d aborts=%d",
				reactive.PlanCommits, reactive.PlanAborts)
		}
		if raceEnabled {
			// Race instrumentation inflates every wall step ~10x, which
			// stalls plan execution past the measurement window; the
			// airtime comparison holds only on uninstrumented builds.
			return
		}
		if planner.PlanCommits >= 1 && planner.CrossChannelShare < reactive.CrossChannelShare {
			return
		}
		lastErr = fmt.Sprintf("planner commits=%d cross=%.3f vs reactive cross=%.3f (want >=1 commit and a lower share)",
			planner.PlanCommits, planner.CrossChannelShare, reactive.CrossChannelShare)
	}
	t.Fatal(lastErr)
}

func TestPlacementJSONRoundTrips(t *testing.T) {
	got, raw := roundTrip(t, "placement", []ChurnOutcome{
		{Mode: "reactive", Ingested: 150, Delivered: 148, Lost: 2, CrossChannelShare: 0.81},
		{Mode: "planner", Ingested: 150, Delivered: 150, PlanCommits: 4, CrossChannelShare: 0.45,
			ChannelAirtimeSec: []float64{1.8, 1.7, 1.7, 1.6}},
	})
	if len(got) != 2 || got[1].PlanCommits != 4 || got[0].Mode != "reactive" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if !strings.Contains(raw, `"cross_channel_share"`) {
		t.Fatal("results missing cross_channel_share field")
	}
}
