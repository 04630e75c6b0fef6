package region_test

import (
	"slices"
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

// plannerOpts shapes one planner harness.
type plannerOpts struct {
	phones   int
	channels int
	speedup  float64
	// cellBps is the cellular rate in both directions; it sets how long a
	// 256 KB operator code ship takes.
	cellBps float64
	// prepare, when set, runs on the started region before the controller's
	// first tick.
	prepare func(*region.Region)
}

// plannerHarness wires a diamond region into a controller running the
// placement planner on its five-simulated-second tick.
func plannerHarness(t *testing.T, o plannerOpts) *harness {
	t.Helper()
	clk := clock.NewScaled(o.speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   o.cellBps,
		DownBitsPerSecond: o.cellBps,
	})
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Hour,
		PingTimeout:      10 * time.Second,
		Adaptive:         true,
	})
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             diamondGraph(t),
		Registry:          diamondRegistry(),
		Scheme:            ft.MSScheme,
		Phones:            o.phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 100e6, Channels: o.channels},
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
	if o.prepare != nil {
		o.prepare(r)
	}
	ctrl.Start()
	t.Cleanup(func() {
		r.Stop()
		ctrl.Stop()
	})
	return &harness{clk: clk, cell: cell, ctrl: ctrl, r: r}
}

// slowShip is the two-channel harness the plan-lifecycle tests interfere
// with: cellular is deliberately slow, so one 256 KB code ship takes ~40
// simulated seconds — a wide-open window for a test to depart a migration
// target while an earlier step of the same plan is still in flight.
func slowShip(phones int) plannerOpts {
	return plannerOpts{phones: phones, channels: 2, speedup: 300, cellBps: 0.05e6}
}

// singleChannel is a one-domain region with fast cellular: the degenerate
// topology where the plan is forecast evacuations plus the spare pool.
var singleChannel = plannerOpts{phones: 7, channels: 1, speedup: 2000, cellBps: 8e6}

// waitJournal polls the region journal until an event of the wanted kind
// appears, returning it.
func waitJournal(t *testing.T, h *harness, kind string, wall time.Duration) (obsEvent, bool) {
	t.Helper()
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		for _, e := range h.r.Obs().Journal.Events() {
			if e.Kind == kind {
				return obsEvent{Kind: e.Kind, Slot: e.Slot, Detail: e.Detail}, true
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return obsEvent{}, false
}

type obsEvent struct {
	Kind   string
	Slot   string
	Detail string
}

// TestPlannerAbortsOnDepartureAndReplans drives the full plan lifecycle
// against churn: the planner proposes a pack-to-empty plan consolidating the
// diamond onto channel 0 (round-robin channels put n1/n3/n5 on channel 0 and
// n2/n4 on channel 1, with idle p7/p9/p11 on channel 0), the test departs
// the plan's second migration target while the first step's code ship is
// still in flight, and the controller must abort the plan the moment the
// stale step fails — journalled, no reactive recovery — then replan the
// leftover slot onto the surviving idle phone with no output lost or
// duplicated.
func TestPlannerAbortsOnDepartureAndReplans(t *testing.T) {
	h := plannerHarness(t, slowShip(11))

	// The first plan packs the group into channel 0: n2 onto p11 and n4
	// onto p7 (candidates sort by ID, "r1/p11" < "r1/p7" < "r1/p9").
	// Depart p7 the moment the plan is proposed: step 1's ~40-second code
	// ship leaves the plan mid-execution, so by the time step 2 tries to
	// claim p7 the GPS feed has told the controller the phone is gone, and
	// the claim fails against the stale snapshot. No tuples are ingested yet — the first tick fires two
	// simulated seconds in, and the departure must land inside step 1.
	if _, ok := waitJournal(t, h, "plan.propose", 20*time.Second); !ok {
		t.Fatal("planner never proposed a plan")
	}
	h.r.DepartPhone("r1/p7")
	h.ctrl.NotifyDeparture("r1", "r1/p7") // the GPS feed (§III-E)

	abort, ok := waitJournal(t, h, "plan.abort", 20*time.Second)
	if !ok {
		for _, e := range h.r.Obs().Journal.Events() {
			t.Logf("journal: %s slot=%s detail=%s", e.Kind, e.Slot, e.Detail)
		}
		t.Fatal("departing the migration target did not abort the plan")
	}
	if abort.Slot != "n4" || !strings.Contains(abort.Detail, "r1/p7") {
		t.Fatalf("abort = %+v, want slot n4 targeting r1/p7", abort)
	}

	// The next tick replans from fresh topology: p7 is gone, so n4 lands
	// on p9, channel 0's surviving idle phone, completing the repack.
	if _, ok := waitJournal(t, h, "plan.commit", 20*time.Second); !ok {
		t.Fatal("planner never committed a replacement plan")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pid, _ := h.r.Placement("n4"); pid == "r1/p9" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if pid, _ := h.r.Placement("n4"); pid != "r1/p9" {
		t.Fatalf("n4 on %s, want r1/p9 after replan", pid)
	}
	if pid, _ := h.r.Placement("n2"); pid != "r1/p11" {
		t.Fatalf("n2 on %s, want r1/p11 from the aborted plan's landed step", pid)
	}
	committed, aborted := h.ctrl.PlanStats("r1")
	if committed < 1 || aborted < 1 {
		t.Fatalf("plan stats committed=%d aborted=%d, want >=1 each", committed, aborted)
	}
	if h.ctrl.Recoveries("r1") != 0 {
		t.Fatal("reactive recovery fired; the plan abort should be clean")
	}

	// No tuple is lost or duplicated on the repacked placement: everything
	// ingested comes out exactly once through the migrated pipeline.
	h.ingest(20)
	if got := h.waitCount(t, 20, 30*time.Second); got < 20 {
		t.Fatalf("outputs after replan = %d, want >= 20", got)
	}
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d, want 0", d)
	}
}

// TestPlanAbortLeavesLaterStepsPlannable is the regression test for the
// cooldown being charged at plan time: a plan of three migrations whose
// second step aborts (its target departed) never attempts the third. The
// next tick, five seconds after the abort, must replan the unattempted
// third step's slot and hold back the attempted second one, whose 10 s
// cooldown runs from the attempt. Charged at plan time, both would have
// been charged ~40 s earlier (step 1's code ship) and both replanned.
func TestPlanAbortLeavesLaterStepsPlannable(t *testing.T) {
	o := slowShip(13)
	// n5's host is below the battery floor before the first tick, so the
	// first plan leads with its evacuation and then packs the diamond onto
	// channel 0: n5 -> p11, n2 -> p13, n4 -> p7 (idle channel-0 phones
	// sort "r1/p11" < "r1/p13" < "r1/p7" < "r1/p9").
	o.prepare = func(r *region.Region) { r.Phone("r1/p5").Revive(0.08) }
	h := plannerHarness(t, o)

	if _, ok := waitJournal(t, h, "plan.propose", 20*time.Second); !ok {
		t.Fatal("planner never proposed a plan")
	}
	// Step 1's ~40-second code ship is in flight; step 2's target leaves.
	h.r.DepartPhone("r1/p13")
	h.ctrl.NotifyDeparture("r1", "r1/p13")
	abort, ok := waitJournal(t, h, "plan.abort", 20*time.Second)
	if !ok {
		t.Fatal("departing the second step's target did not abort the plan")
	}
	if abort.Slot != "n2" || !strings.Contains(abort.Detail, "r1/p13") {
		t.Fatalf("abort = %+v, want slot n2 targeting r1/p13", abort)
	}

	// The next tick replans n4, which the aborted plan never reached, and
	// holds n2 back: n2 was attempted, so it is charged and sits out the
	// cooldown. replan lists the slots of the steps journaled after the
	// abort.
	replan := func() []string {
		var slots []string
		aborted := false
		for _, e := range h.r.Obs().Journal.Events() {
			switch {
			case e.Kind == "plan.abort":
				aborted = true
			case aborted && e.Kind == "plan.step":
				slots = append(slots, e.Slot)
			}
		}
		return slots
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && !slices.Contains(replan(), "n4") {
		time.Sleep(2 * time.Millisecond)
	}
	if got := replan(); len(got) == 0 || got[0] != "n4" || slices.Contains(got, "n2") {
		t.Fatalf("steps after the abort touch slots %q, want n4 first and not n2 inside its cooldown", got)
	}
	if pid, _ := h.r.Placement("n4"); pid != "r1/p7" && pid != "r1/p9" {
		t.Fatalf("n4 on %s, want channel 0's idle r1/p7 or r1/p9: the unattempted step stayed locked out", pid)
	}
	if pid, _ := h.r.Placement("n5"); pid != "r1/p11" {
		t.Fatalf("n5 on %s, want r1/p11 from the aborted plan's landed step", pid)
	}
	if h.ctrl.Recoveries("r1") != 0 {
		t.Fatal("reactive recovery fired; the plan abort should be clean")
	}
}

// evacuateLowBattery drives the single-channel scenario both tests below
// share: cliff the host of n3 under the battery floor and wait for the
// planner to move the slot. It returns the cliffed phone.
func evacuateLowBattery(t *testing.T, h *harness) simnet.NodeID {
	t.Helper()
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	victim, _ := h.r.Placement("n3")
	h.r.Phone(victim).Revive(0.08) // battery cliff: below the 0.15 floor
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if pid, _ := h.r.Placement("n3"); pid != victim {
			break
		}
		h.ingest(1)
		time.Sleep(5 * time.Millisecond)
	}
	if pid, _ := h.r.Placement("n3"); pid == victim {
		t.Fatalf("planner never evacuated n3 off low-battery %s", victim)
	}
	return victim
}

// TestPlannerEvacuatesOnSingleDomain pins that a one-channel region is just
// a degenerate plan: the planner itself evacuates the low-battery host, and
// the plan lifecycle is journaled like any other.
func TestPlannerEvacuatesOnSingleDomain(t *testing.T) {
	h := plannerHarness(t, singleChannel)
	evacuateLowBattery(t, h)
	if _, ok := waitJournal(t, h, "plan.commit", 20*time.Second); !ok {
		t.Fatal("the evacuating plan was never journaled as committed")
	}
	if committed, _ := h.ctrl.PlanStats("r1"); committed < 1 {
		t.Fatalf("plan stats committed=%d, want >= 1", committed)
	}
}

// TestRecoveryDrawsOnWarmSpares pins that reactive recovery still backstops
// what the plan misses: with a single idle phone the first plan reserves it
// as the domain's warm spare, and an abrupt, unforecast failure of a
// hosting phone must recover onto that spare rather than find the idle
// pool empty and kill the region.
func TestRecoveryDrawsOnWarmSpares(t *testing.T) {
	o := singleChannel
	o.phones = 6 // five slots, one idle
	h := plannerHarness(t, o)
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}
	if _, ok := waitJournal(t, h, "plan.commit", 20*time.Second); !ok {
		t.Fatal("the spare-pool plan was never committed")
	}
	if steps(h.r, "ok=true reserve r1/p6") != 1 {
		t.Fatal("the plan should hold the only idle phone, r1/p6, as a spare")
	}
	victim, _ := h.r.Placement("n3")
	h.r.FailPhone(victim)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if pid, _ := h.r.Placement("n3"); pid != victim || h.ctrl.RegionDead("r1") {
			break
		}
		h.ingest(1) // keep data flowing so the upstream detects the failure
		time.Sleep(5 * time.Millisecond)
	}
	if h.ctrl.RegionDead("r1") {
		t.Fatal("region died: recovery could not see the planner's warm spare")
	}
	if pid, _ := h.r.Placement("n3"); pid != "r1/p6" {
		t.Fatalf("n3 on %s, want the warm spare r1/p6", pid)
	}
	if h.ctrl.Recoveries("r1") != 1 {
		t.Fatalf("recoveries = %d, want 1", h.ctrl.Recoveries("r1"))
	}
}
