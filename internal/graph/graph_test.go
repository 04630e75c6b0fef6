package graph

import (
	"reflect"
	"testing"
)

// diamond builds the 5-node graph of Fig. 5: A -> B -> {C, D} -> E.
func diamond(t *testing.T) *Graph {
	t.Helper()
	var b Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").
		AddOperator("C", "n3").AddOperator("D", "n4").AddOperator("E", "n5")
	b.Connect("A", "B").Connect("B", "C").Connect("B", "D").
		Connect("C", "E").Connect("D", "E")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildDiamond(t *testing.T) {
	g := diamond(t)
	if got := g.Sources(); !reflect.DeepEqual(got, []string{"A"}) {
		t.Fatalf("sources = %v", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []string{"E"}) {
		t.Fatalf("sinks = %v", got)
	}
	if got := g.Upstream("E"); !reflect.DeepEqual(got, []string{"C", "D"}) {
		t.Fatalf("upstream(E) = %v", got)
	}
	if got := g.Downstream("B"); !reflect.DeepEqual(got, []string{"C", "D"}) {
		t.Fatalf("downstream(B) = %v", got)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(t)
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, id := range topo {
		pos[id] = i
	}
	for _, id := range g.Operators() {
		for _, dn := range g.Downstream(id) {
			if pos[id] >= pos[dn] {
				t.Fatalf("topo order violates edge %s->%s: %v", id, dn, topo)
			}
		}
	}
}

func TestCycleRejected(t *testing.T) {
	var b Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").AddOperator("S", "n3").AddOperator("K", "n4")
	b.Connect("S", "A").Connect("A", "B").Connect("B", "A").Connect("B", "K")
	if _, err := b.Build(); err == nil {
		t.Fatal("cycle not rejected")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
	}{
		{"empty id", func() *Builder {
			var b Builder
			return b.AddOperator("", "n1")
		}},
		{"no slot", func() *Builder {
			var b Builder
			return b.AddOperator("A", "")
		}},
		{"duplicate op", func() *Builder {
			var b Builder
			return b.AddOperator("A", "n1").AddOperator("A", "n2")
		}},
		{"unknown edge from", func() *Builder {
			var b Builder
			return b.AddOperator("A", "n1").Connect("X", "A")
		}},
		{"unknown edge to", func() *Builder {
			var b Builder
			return b.AddOperator("A", "n1").Connect("A", "X")
		}},
		{"self loop", func() *Builder {
			var b Builder
			return b.AddOperator("A", "n1").Connect("A", "A")
		}},
		{"duplicate edge", func() *Builder {
			var b Builder
			return b.AddOperator("A", "n1").AddOperator("B", "n2").
				Connect("A", "B").Connect("A", "B")
		}},
		{"no sources", func() *Builder {
			// Not buildable without a cycle; a cycle also errors first,
			// so use an empty graph which has no sources.
			return &Builder{}
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build().Build(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSlotProjection(t *testing.T) {
	// Two operators co-located on one slot: A,B on n1; C on n2; D on n3.
	var b Builder
	b.AddOperator("A", "n1").AddOperator("B", "n1").
		AddOperator("C", "n2").AddOperator("D", "n3")
	b.Connect("A", "B").Connect("B", "C").Connect("C", "D")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Slots(); !reflect.DeepEqual(got, []string{"n1", "n2", "n3"}) {
		t.Fatalf("slots = %v", got)
	}
	if got := g.OpsOnSlot("n1"); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("ops on n1 = %v", got)
	}
	// The A->B edge is intra-slot and must not appear in the projection.
	if got := g.SlotUpstreams("n1"); len(got) != 0 {
		t.Fatalf("slot upstreams(n1) = %v, want none", got)
	}
	if got := g.SlotDownstreams("n1"); !reflect.DeepEqual(got, []string{"n2"}) {
		t.Fatalf("slot downstreams(n1) = %v", got)
	}
	if got := g.SlotUpstreams("n3"); !reflect.DeepEqual(got, []string{"n2"}) {
		t.Fatalf("slot upstreams(n3) = %v", got)
	}
	if got := g.SourceSlots(); !reflect.DeepEqual(got, []string{"n1"}) {
		t.Fatalf("source slots = %v", got)
	}
	if got := g.SinkSlots(); !reflect.DeepEqual(got, []string{"n3"}) {
		t.Fatalf("sink slots = %v", got)
	}
}

func TestChainHelper(t *testing.T) {
	var b Builder
	b.AddOperator("S", "n1").AddOperator("M", "n2").AddOperator("K", "n3")
	b.Chain("S", "M", "K")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Downstream("S"); !reflect.DeepEqual(got, []string{"M"}) {
		t.Fatalf("downstream(S) = %v", got)
	}
	if got := g.Downstream("M"); !reflect.DeepEqual(got, []string{"K"}) {
		t.Fatalf("downstream(M) = %v", got)
	}
}

func TestSpecLookup(t *testing.T) {
	g := diamond(t)
	s, ok := g.Spec("C")
	if !ok || s.Slot != "n3" {
		t.Fatalf("spec(C) = %+v, %v", s, ok)
	}
	if _, ok := g.Spec("nope"); ok {
		t.Fatal("unknown operator found")
	}
	if g.SlotOf("D") != "n4" {
		t.Fatalf("SlotOf(D) = %q", g.SlotOf("D"))
	}
}

// TestDenseIDsRoundTrip pins the dense numbering every node compiles its
// data path from: each operator and slot name maps to an ID and back, IDs
// are dense, the pseudo-upstreams' reserved IDs name no real slot, and a
// slot may not take a reserved name.
func TestDenseIDsRoundTrip(t *testing.T) {
	g := diamond(t)
	if g.NumOps() != len(g.Operators()) {
		t.Fatalf("NumOps = %d for %d operators", g.NumOps(), len(g.Operators()))
	}
	for i, name := range g.Operators() {
		id, ok := g.OpID(name)
		if !ok || id != OpID(i) || g.OpName(id) != name {
			t.Fatalf("op %q: id %d (ok %v), name back %q", name, id, ok, g.OpName(id))
		}
		if got := g.SlotName(g.OpSlot(id)); got != g.SlotOf(name) {
			t.Fatalf("op %q: OpSlot names %q, want %q", name, got, g.SlotOf(name))
		}
	}
	if id, ok := g.OpID("nope"); ok || id != NoOp || g.OpName(NoOp) != "" {
		t.Fatalf("unknown op resolves to %d (ok %v); NoOp names %q", id, ok, g.OpName(NoOp))
	}
	if g.NumSlotIDs() != len(g.Slots())+int(firstSlot) {
		t.Fatalf("NumSlotIDs = %d for %d slots", g.NumSlotIDs(), len(g.Slots()))
	}
	seen := map[SlotID]bool{ExternalSlot: true, RerouteSlot: true}
	if ExternalSlot == RerouteSlot {
		t.Fatal("pseudo-upstreams share an ID")
	}
	for _, slot := range g.Slots() {
		id, ok := g.SlotID(slot)
		if !ok || g.SlotName(id) != slot {
			t.Fatalf("slot %q: id %d (ok %v), name back %q", slot, id, ok, g.SlotName(id))
		}
		if seen[id] {
			t.Fatalf("slot %q reuses ID %d", slot, id)
		}
		seen[id] = true
	}
	for _, pseudo := range []SlotID{ExternalSlot, RerouteSlot} {
		if _, ok := g.SlotID(g.SlotName(pseudo)); ok {
			t.Fatalf("pseudo-upstream %q resolves as a real slot", g.SlotName(pseudo))
		}
		var b Builder
		b.AddOperator("a", g.SlotName(pseudo)).AddOperator("b", "n1").Connect("a", "b")
		if _, err := b.Build(); err == nil {
			t.Fatalf("a slot named %q built", g.SlotName(pseudo))
		}
	}
	// Every node builds from the same graph; a second build of the same
	// declaration numbers identically too.
	again := diamond(t)
	for _, name := range g.Operators() {
		a, _ := g.OpID(name)
		b, _ := again.OpID(name)
		if a != b {
			t.Fatalf("op %q numbered %d and %d", name, a, b)
		}
	}
	for _, slot := range g.Slots() {
		a, _ := g.SlotID(slot)
		b, _ := again.SlotID(slot)
		if a != b {
			t.Fatalf("slot %q numbered %d and %d", slot, a, b)
		}
	}
}

// KeyedSlot reports whether a slot hosts a keyed group instance.
func (g *Graph) KeyedSlot(slot string) bool {
	for _, id := range g.opsOnSlot[slot] {
		if _, ok := g.groupOf[id]; ok {
			return true
		}
	}
	return false
}

// Spec returns the spec for an operator, and whether it exists.
func (g *Graph) Spec(id string) (operatorSpec, bool) {
	s, ok := g.ops[id]
	return s, ok
}
