package region_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// keyedGraph is the elastic pipeline: SRC -> KB (key tag) -> tally (keyed
// group, 2 of 3 instances initially active) -> SINK.
func keyedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	var b graph.Builder
	b.AddOperator("SRC", "s1").AddOperator("KB", "s2").AddOperator("SINK", "s9")
	b.AddKeyedOperator("tally", "kt", 2, 3)
	b.Connect("SRC", "KB")
	b.ConnectToGroup("KB", "tally")
	b.ConnectFromGroup("tally", "SINK")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func keyedRegistry() operator.Registry {
	reg := operator.Registry{
		"SRC": func() operator.Operator { return operator.NewPassthrough("SRC") },
		"KB": func() operator.Operator {
			return operator.NewKeyTag("KB", func(t *tuple.Tuple) string { return t.Kind })
		},
		"SINK": func() operator.Operator { return operator.NewPassthrough("SINK") },
	}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("tally#%d", i)
		reg[id] = func() operator.Operator { return operator.NewKeyedTally(id) }
	}
	return reg
}

type keyedHarness struct {
	clk  *clock.Scaled
	cell *simnet.Cellular
	ctrl *controller.Controller
	r    *region.Region
	seq  int
}

func newKeyedHarness(t testing.TB) *keyedHarness {
	t.Helper()
	return newKeyedHarnessWith(t, keyedRegistry())
}

func newKeyedHarnessWith(t testing.TB, reg operator.Registry) *keyedHarness {
	t.Helper()
	speedup := 2000.0
	if raceEnabled {
		speedup = 300
	}
	clk := clock.NewScaled(speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   8e6,
		DownBitsPerSecond: 8e6,
	})
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
	})
	r, err := region.New(region.Config{
		ID:           "r1",
		Graph:        keyedGraph(t),
		Registry:     reg,
		Scheme:       ft.MSScheme,
		Phones:       8,
		Clock:        clk,
		WiFi:         simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:         cell,
		ControllerID: ctrl.ID(),
		Broadcast:    broadcast.Config{BlockSize: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Keys are lowercase letters; the default even-byte split would park
	// them all on instance 0, so seed a bound inside the alphabet.
	if err := r.SeedKeyRanges("tally", []string{"n"}); err != nil {
		t.Fatal(err)
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()
	t.Cleanup(func() {
		r.Stop()
		ctrl.Stop()
	})
	return &keyedHarness{clk: clk, cell: cell, ctrl: ctrl, r: r}
}

// ask sends msg to phone over cellular, as the controller's executor
// would, and returns the error its answer carries.
func (h *keyedHarness) ask(t testing.TB, to simnet.NodeID, class simnet.Class, msg any) error {
	t.Helper()
	reply := make(chan simnet.Message, 1)
	if err := h.cell.Request(h.ctrl.ID(), to, class, 64, msg, reply); err != nil {
		t.Fatalf("send to %s: %v", to, err)
	}
	select {
	case m := <-reply:
		if a := m.Payload.(node.Answer); a.Err != "" {
			return errors.New(a.Err)
		}
		return nil
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never answered", to)
		return nil
	}
}

// moveKeys sends a split or merge of instance from into instance to
// straight to the donor's host, not through the controller's executor,
// so it can interleave with a job the executor runs.
func (h *keyedHarness) moveKeys(t testing.TB, op node.CommandOp, from, to int) error {
	t.Helper()
	donor, _ := h.r.Placement(fmt.Sprintf("kt#%d", from))
	slot := fmt.Sprintf("kt#%d", to)
	recip, _ := h.r.Placement(slot)
	return h.ask(t, donor, simnet.ClassControl, node.Command{Op: op, Target: recip, Slot: slot})
}

// keyedKeys is the test keyspace: 20 single-letter keys straddling the
// seeded bound "n".
func keyedKeys() []string {
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = string(rune('a' + i))
	}
	return keys
}

// ingestRound pushes two tuples per key.
func (h *keyedHarness) ingestRound() {
	for round := 0; round < 2; round++ {
		for _, k := range keyedKeys() {
			h.seq++
			h.r.Ingest("SRC", fmt.Sprintf("v%d", h.seq), 512, k)
		}
	}
}

func (h *keyedHarness) waitCount(t testing.TB, want int64, wall time.Duration) int64 {
	t.Helper()
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		if got := int64(h.r.Outputs()); got >= want {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
	return int64(h.r.Outputs())
}

// tally returns instance i's live KeyedTally.
func (h *keyedHarness) tally(t testing.TB, i int) *operator.KeyedTally {
	t.Helper()
	slot := fmt.Sprintf("kt#%d", i)
	pid, ok := h.r.Placement(slot)
	if !ok {
		t.Fatalf("no placement for %s", slot)
	}
	op := h.r.Node(pid).OperatorByID(fmt.Sprintf("tally#%d", i))
	kt, ok := op.(*operator.KeyedTally)
	if !ok {
		t.Fatalf("instance %d: operator %T is not a KeyedTally", i, op)
	}
	return kt
}

// checkTotals asserts every key's count, summed across all instances,
// equals want, and that the count is resident at the table's owner.
func (h *keyedHarness) checkTotals(t testing.TB, want uint64) {
	t.Helper()
	grp, ok := h.r.KeyedGroup("tally")
	if !ok {
		t.Fatal("no keyed group")
	}
	tallies := []*operator.KeyedTally{h.tally(t, 0), h.tally(t, 1), h.tally(t, 2)}
	for _, k := range keyedKeys() {
		var total uint64
		for _, kt := range tallies {
			total += kt.Count(k)
		}
		if total != want {
			t.Fatalf("key %q: total count = %d, want %d", k, total, want)
		}
		owner := grp.Owner(k)
		if got := tallies[owner].Count(k); got == 0 {
			t.Fatalf("key %q: owner %d holds no count", k, owner)
		}
	}
}

// TestKeyedRoutingSplitMergeLive drives the full elastic lifecycle under
// live traffic: keyed routing across two active instances, a median split
// handing half of instance 0's keys (state included) to the dormant
// instance 2, and a merge draining instance 2 back — with per-key tallies
// and output exactly-once checked at every stage.
func TestKeyedRoutingSplitMergeLive(t *testing.T) {
	h := newKeyedHarness(t)
	h.ingestRound()
	if got := h.waitCount(t, 40, 10*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want 40", got)
	}
	h.checkTotals(t, 2)

	grp, _ := h.r.KeyedGroup("tally")
	if insts := grp.Table().Instances(); len(insts) != 2 {
		t.Fatalf("active instances = %v, want 2", insts)
	}
	if err := h.moveKeys(t, node.CmdSplit, 0, 2); err != nil {
		t.Fatalf("split: %v", err)
	}
	if insts := grp.Table().Instances(); len(insts) != 3 {
		t.Fatalf("post-split active instances = %v, want 3", insts)
	}

	h.ingestRound()
	if got := h.waitCount(t, 80, 10*time.Second); got != 80 {
		t.Fatalf("post-split outputs = %d, want 80", got)
	}
	h.checkTotals(t, 4)

	if err := h.moveKeys(t, node.CmdMerge, 2, 0); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if insts := grp.Table().Instances(); len(insts) != 2 {
		t.Fatalf("post-merge active instances = %v, want 2", insts)
	}

	h.ingestRound()
	if got := h.waitCount(t, 120, 10*time.Second); got != 120 {
		t.Fatalf("post-merge outputs = %d, want 120", got)
	}
	h.checkTotals(t, 6)
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d", d)
	}
}

// A shipped key range the recipient cannot import is reported back: the
// split fails at once with the recipient's error instead of a timeout, and
// the donor keeps the range. Here the dormant instance 2 runs an operator
// with no keyed state; a corrupt range sent straight to instance 1 is
// refused and reported the same way.
func TestKeyRangeImportFailureIsReported(t *testing.T) {
	reg := keyedRegistry()
	reg["tally#2"] = func() operator.Operator { return operator.NewPassthrough("tally#2") }
	h := newKeyedHarnessWith(t, reg)
	h.ingestRound()
	if got := h.waitCount(t, 40, 10*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want 40", got)
	}
	grp, _ := h.r.KeyedGroup("tally")
	err := h.moveKeys(t, node.CmdSplit, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "no keyed state to import into") {
		t.Fatalf("split into a recipient that cannot import: %v", err)
	}
	if insts := grp.Table().Instances(); len(insts) != 2 {
		t.Fatalf("a failed ship flipped the table: active instances = %v", insts)
	}
	donor := h.tally(t, 0)
	for _, k := range keyedKeys() {
		if grp.Owner(k) == 0 && donor.Count(k) != 2 {
			t.Fatalf("key %q: donor count = %d after the failed split, want 2", k, donor.Count(k))
		}
	}

	recipID, _ := h.r.Placement("kt#1")
	corrupt := node.KeyRangeMsg{Logical: "tally", Ranges: [][2]string{{"a", "b"}}, State: []byte{0xff, 0xff, 0xff}}
	err = h.ask(t, recipID, simnet.ClassTransfer, corrupt)
	if err == nil || !strings.Contains(err.Error(), "key-range import of tally [a,b)") {
		t.Fatalf("corrupt range imported or misreported: %v", err)
	}
}

// A merge moves every range its donor owns in one message, which the
// recipient imports whole or not at all: a recipient that cannot import
// leaves both of the donor's ranges, and their state, at the donor, and
// the table as it was.
func TestKeyedMergeOfTwoRangesFailsWhole(t *testing.T) {
	reg := keyedRegistry()
	reg["tally#2"] = func() operator.Operator { return operator.NewPassthrough("tally#2") }
	h := newKeyedHarnessWith(t, reg)
	// [,g) and [n,) go to instance 0, [g,n) to instance 1.
	if err := h.r.SeedKeyRanges("tally", []string{"g", "n"}); err != nil {
		t.Fatal(err)
	}
	grp, _ := h.r.KeyedGroup("tally")
	before := grp.Table()
	if owned := before.OwnedRanges(0); len(owned) != 2 {
		t.Fatalf("instance 0 owns %v, want two ranges", owned)
	}
	h.ingestRound()
	if got := h.waitCount(t, 40, 10*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want 40", got)
	}
	err := h.moveKeys(t, node.CmdMerge, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "no keyed state to import into") {
		t.Fatalf("merge into a recipient that cannot import: %v", err)
	}
	if grp.Table() != before {
		t.Fatalf("a failed merge installed %v over %v", grp.Table(), before)
	}
	// Both ranges keep counting where they were.
	h.ingestRound()
	if got := h.waitCount(t, 80, 10*time.Second); got != 80 {
		t.Fatalf("outputs after the failed merge = %d, want 80", got)
	}
	tallies := []*operator.KeyedTally{h.tally(t, 0), h.tally(t, 1)}
	for _, k := range keyedKeys() {
		if got := tallies[grp.Owner(k)].Count(k); got != 4 {
			t.Fatalf("key %q: count at instance %d = %d after the failed merge, want 4", k, grp.Owner(k), got)
		}
	}
}

// ingestBackground streams two rounds from a goroutine so an elastic
// operation can interleave with live traffic; the caller must receive from
// the returned channel before touching h.seq again.
func (h *keyedHarness) ingestBackground() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			h.ingestRound()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return done
}

func (h *keyedHarness) waitCommitted(t testing.TB, v uint64, wall time.Duration) {
	t.Helper()
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		if h.ctrl.Committed("r1") >= v {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("checkpoint v%d never committed", v)
}

// TestKeyedSplitDuringCheckpointExactlyOnce interleaves a live key-range
// split with an in-flight token checkpoint and streaming traffic: the
// checkpoint must still commit, every tuple must count exactly once at the
// table's owner, and the sink must see zero duplicates.
func TestKeyedSplitDuringCheckpointExactlyOnce(t *testing.T) {
	h := newKeyedHarness(t)
	h.ingestRound()
	if got := h.waitCount(t, 40, 10*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want 40", got)
	}
	h.checkTotals(t, 2)

	done := h.ingestBackground()
	v := h.ctrl.TriggerCheckpoint("r1")
	if err := h.moveKeys(t, node.CmdSplit, 0, 2); err != nil {
		t.Fatalf("split during checkpoint: %v", err)
	}
	<-done
	h.waitCommitted(t, v, 15*time.Second)

	if got := h.waitCount(t, 120, 30*time.Second); got != 120 {
		t.Fatalf("outputs = %d, want exactly 120 (no loss)", got)
	}
	h.checkTotals(t, 6)
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d", d)
	}
	grp, _ := h.r.KeyedGroup("tally")
	if insts := grp.Table().Instances(); len(insts) != 3 {
		t.Fatalf("post-split active instances = %v, want 3", insts)
	}
}

// TestKeyedMergeDuringMigrationExactlyOnce interleaves a merge (instance 1
// drains into 0) with a planned live migration of the upstream KeyBy slot
// and streaming traffic. Both control operations must land and the data
// plane must stay exactly-once throughout.
func TestKeyedMergeDuringMigrationExactlyOnce(t *testing.T) {
	h := newKeyedHarness(t)
	h.ingestRound()
	if got := h.waitCount(t, 40, 10*time.Second); got != 40 {
		t.Fatalf("outputs = %d, want 40", got)
	}
	h.checkTotals(t, 2)

	done := h.ingestBackground()
	migrated := h.ctrl.Migrate("r1", "s2", "r1/p7")
	err := h.moveKeys(t, node.CmdMerge, 1, 0)
	<-done
	if !migrated {
		t.Fatal("migration s2 -> p6 failed")
	}
	if err != nil {
		t.Fatalf("merge during migration: %v", err)
	}

	if got := h.waitCount(t, 120, 30*time.Second); got != 120 {
		t.Fatalf("outputs = %d, want exactly 120 (no loss)", got)
	}
	h.checkTotals(t, 6)
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d", d)
	}
	if pid, _ := h.r.Placement("s2"); pid != "r1/p7" {
		t.Fatalf("s2 on %s, want r1/p7", pid)
	}
	grp, _ := h.r.KeyedGroup("tally")
	if insts := grp.Table().Instances(); len(insts) != 1 || insts[0] != 0 {
		t.Fatalf("post-merge active instances = %v, want [0]", insts)
	}
}
