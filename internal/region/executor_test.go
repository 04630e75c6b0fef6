package region_test

import (
	"strings"
	"testing"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// TestDepartureDuringRecoveryWaitsForIt departs a slot host while an ms
// recovery is running. The controller's executor runs one action at a
// time, so the journal shows every handoff step after the recovery's last
// resume step, and the sink output stays exactly-once through both.
// Cellular is slow (a 256 KB code ship takes ~40 simulated seconds), so the
// recovery is still shipping code to its replacement when the departure
// arrives.
func TestDepartureDuringRecoveryWaitsForIt(t *testing.T) {
	speedup := 300.0
	if raceEnabled {
		speedup = 100
	}
	clk := clock.NewScaled(speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{UpBitsPerSecond: 0.05e6, DownBitsPerSecond: 0.05e6})
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Hour,
	})
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             diamondGraph(t),
		Registry:          diamondRegistry(),
		Scheme:            ft.MSScheme,
		Phones:            8,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()
	t.Cleanup(func() {
		r.Stop()
		ctrl.Stop()
	})
	h := &harness{clk: clk, cell: cell, ctrl: ctrl, r: r}

	h.ingest(15)
	if got := h.waitCount(t, 15, 10*time.Second); got != 15 {
		t.Fatalf("pre-checkpoint outputs = %d, want 15", got)
	}
	v := ctrl.TriggerCheckpoint("r1")
	if !h.waitCommitted(t, v, 15*time.Second) {
		t.Fatal("checkpoint never committed")
	}
	h.ingest(15)
	h.waitCount(t, 30, 10*time.Second)

	victim, _ := r.Placement("n3")
	r.FailPhone(victim)
	h.ingest(15) // the upstream detects the failure sending these
	if _, ok := waitJournalDetail(r, "plan.propose", "recover", 20*time.Second); !ok {
		t.Fatal("no recovery was proposed")
	}
	leaving, _ := r.Placement("n2")
	if steps(r, " resume ") > 0 {
		t.Fatal("the recovery resumed before the departure arrived: nothing overlapped")
	}
	r.DepartPhone(leaving)
	ctrl.NotifyDeparture("r1", leaving)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pid, _ := r.Placement("n2"); pid != leaving && ctrl.CatchUpCount("r1", 1) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if pid, _ := r.Placement("n2"); pid == leaving {
		t.Fatal("n2 never moved off the departed phone")
	}
	if ctrl.CatchUpCount("r1", 1) == 0 {
		t.Fatal("catch-up never completed")
	}

	lastResume, firstHandoff := -1, -1
	for i, e := range r.Obs().Journal.Events() {
		if e.Kind != "plan.step" {
			continue
		}
		if strings.Contains(e.Detail, " resume ") {
			lastResume = i
		}
		if strings.Contains(e.Detail, " handoff ") && firstHandoff < 0 {
			firstHandoff = i
		}
	}
	if lastResume < 0 || firstHandoff < 0 || firstHandoff < lastResume {
		for _, e := range r.Obs().Journal.Events() {
			t.Logf("journal: %s slot=%s %s", e.Kind, e.Slot, e.Detail)
		}
		t.Fatalf("last resume step at %d, first handoff step at %d: the handoff must follow the recovery", lastResume, firstHandoff)
	}

	// Batches 1, 2 and 4 come out exactly once. Batch 3 flowed while the
	// victim was dead: ms sinks discard catch-up output (§III-D), so its
	// results may be dropped, but none may be duplicated.
	h.ingest(15)
	got := h.waitCount(t, 45, 30*time.Second)
	if got < 45 || got > 60 {
		t.Fatalf("outputs = %d, want 45..60", got)
	}
	if d := r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d, want 0", d)
	}
}

// waitJournalDetail polls the journal for an event of kind whose detail
// contains substr.
func waitJournalDetail(r *region.Region, kind, substr string, wall time.Duration) (string, bool) {
	for deadline := time.Now().Add(wall); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		for _, e := range r.Obs().Journal.Events() {
			if e.Kind == kind && strings.Contains(e.Detail, substr) {
				return e.Detail, true
			}
		}
	}
	return "", false
}

// steps counts the journaled plan steps whose detail contains substr.
func steps(r *region.Region, substr string) int {
	n := 0
	for _, e := range r.Obs().Journal.Events() {
		if e.Kind == "plan.step" && strings.Contains(e.Detail, substr) {
			n++
		}
	}
	return n
}
