package placement

import (
	"testing"

	"mobistreams/internal/simnet"
)

// TestStepStringGolden pins the text of every step kind: the journal
// records each executed step in this form, and plan golden tests compare
// it byte for byte.
func TestStepStringGolden(t *testing.T) {
	phones := []simnet.NodeID{"p1", "p5"}
	cases := []struct {
		st   Step
		want string
	}{
		{Step{Kind: StepMigrate, Slot: "n3", From: "p5", To: "p3", Reason: "evac:battery(20s)"}, "migrate n3 p5->p3 dom0 evac:battery(20s)"},
		{Step{Kind: StepReserve, To: "p4", Domain: 1, Reason: "spare:pool"}, "reserve p4 dom1 spare:pool"},
		{Step{Kind: StepRelease, To: "p6", Reason: "spare:reclaim"}, "release p6 dom0 spare:reclaim"},
		{Step{Kind: StepActivate, Slot: "n2", To: "p5", Reason: "replace:p2"}, "activate n2 p5 replace:p2"},
		{Step{Kind: StepPause, Phones: phones, Reason: "region-wide"}, "pause [p1 p5] region-wide"},
		{Step{Kind: StepRestore, Phones: phones, Version: 3, Reason: "local-mrc"}, "restore v3 [p1 p5] local-mrc"},
		{Step{Kind: StepFetchRestore, Slot: "n2", From: "p4", To: "p5", Version: 3, Reason: "peer-copy"}, "fetch-restore n2 v3 p4->p5 peer-copy"},
		{Step{Kind: StepReplay, Phones: phones[:1], Version: 3, Epoch: 2, Reason: "catch-up"}, "replay v3 e2 [p1] catch-up"},
		{Step{Kind: StepResume, Phones: phones, Reason: "downstream-first"}, "resume [p1 p5] downstream-first"},
		{Step{Kind: StepPromote, Slot: "n2", Reason: "standby"}, "promote n2 standby"},
		{Step{Kind: StepKill, Reason: "3 failed, rep-2 tolerates 1"}, "kill 3 failed, rep-2 tolerates 1"},
		{Step{Kind: StepHandoff, Slot: "n3", From: "p3", To: "p5", Reason: "depart"}, "handoff n3 p3->p5 depart"},
		{Step{Kind: StepUnregister, From: "p3", Reason: "departed"}, "unregister p3 departed"},
		{Step{Kind: StepSplit, Slot: "kt#1", Group: "tally", Donor: 1, Recipient: 2, Reason: "backpressure"}, "split tally 1->2 backpressure"},
		{Step{Kind: StepMerge, Slot: "kt#2", Group: "tally", Donor: 2, Recipient: 0, Reason: "cold"}, "merge tally 2->0 cold"},
		{Step{Kind: StepKind(99)}, "step(99)"},
	}
	for _, tc := range cases {
		if got := tc.st.String(); got != tc.want {
			t.Errorf("%s step = %q, want %q", tc.st.Kind, got, tc.want)
		}
	}

	plan := Plan{Region: "r1", Cause: "elastic tally", Steps: []Step{cases[13].st}}
	const want = "plan r1 v0 steps=1 elastic tally\n" +
		" 0 split tally 1->2 backpressure\n"
	if got := plan.Encode(); got != want {
		t.Errorf("elastic plan encodes as\n%swant\n%s", got, want)
	}
}
