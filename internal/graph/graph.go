// Package graph models a stream application's query network: a directed
// acyclic graph of operators, each placed on a logical node slot (one slot
// per phone). Source operators have no in-edges and admit external data;
// sink operators have no out-edges and publish results (§II-A).
package graph

import (
	"fmt"
	"sort"
)

// operatorSpec declares one operator and its placement.
type operatorSpec struct {
	// ID is the operator's unique name within the graph (e.g. "C0").
	ID string
	// Slot is the logical node the operator runs on (e.g. "n3"). All
	// operators sharing a slot run on the same phone as a super-operator.
	Slot string
}

// edge is a producer-consumer connection between two operators.
type edge struct {
	From, To string
}

// Graph is a validated query network. The slot-level projections every
// node consults when compiling its pipeline (slots, per-slot operators,
// upstream and downstream slots) are computed once at Build time, so
// reconfiguration, restore and commit paths read cached slices instead of
// re-deriving them from the edge lists.
type Graph struct {
	ops   map[string]operatorSpec
	order []string // insertion order, for deterministic iteration; OpID -> name
	out   map[string][]string
	in    map[string][]string

	// Dense IDs, numbered once at Build (see OpID and SlotID).
	opID      map[string]OpID
	opSlot    []SlotID            // OpID -> hosting slot
	slotNames []string            // SlotID -> name, reserved IDs first
	slotID    map[string]SlotID   // real slot name -> SlotID
	slots     []string            // sorted slot names (slotNames[firstSlot:])
	opsOnSlot map[string][]string // slot -> operators, declaration order
	slotUp    map[string][]string // slot -> distinct feeding slots, sorted
	slotDown  map[string][]string // slot -> distinct fed slots, sorted
	slotEdges []slotEdge          // cross-slot edges with op-edge weights, sorted

	groups  []KeyedGroupSpec    // keyed parallel groups, declaration order
	groupOf map[string]groupRef // instance op ID -> group membership
}

// KeyedGroupSpec declares one logical operator expanded into keyed
// parallel instances: instance i is operator Instances[i] on slot
// Slots[i]. Parallelism is how many instances serve traffic initially;
// the rest are placed but dormant until a live split hands them a key
// range. The runtime partition table itself lives in internal/keyed —
// the graph only records the group's shape.
type KeyedGroupSpec struct {
	Logical     string
	Instances   []string
	Slots       []string
	Parallelism int
}

// OpID is an operator's dense index: its position in declaration order.
// Every node compiles its data path from the same immutable Graph, so an
// OpID means the same operator on every phone of the region.
type OpID int32

// NoOp stands for "no operator": a marker's endpoints, or the producer of
// externally admitted input.
const NoOp OpID = -1

// SlotID is a slot's dense index. The pseudo-upstreams a node queues
// external and rerouted input on take the first IDs; the graph's slots
// follow in sorted order, so a SlotID indexes one table covering both.
type SlotID int32

const (
	// ExternalSlot is the pseudo-upstream of externally admitted tuples
	// and controller-injected markers on source slots.
	ExternalSlot SlotID = iota
	// RerouteSlot is the pseudo-upstream of tuples a keyed instance
	// relays to the current owner of their key.
	RerouteSlot
	firstSlot
)

// reservedSlotNames names the pseudo-upstreams in logs, histograms and
// checkpoint alignment; Build rejects a slot that reuses one.
var reservedSlotNames = [firstSlot]string{"__ext__", "__reroute__"}

// groupRef locates an operator inside a keyed group.
type groupRef struct {
	group int // index into Graph.groups
	inst  int // instance index
}

// Builder accumulates operators and edges; Build validates them.
type Builder struct {
	specs  []operatorSpec
	edges  []edge
	groups []KeyedGroupSpec
}

// AddOperator declares an operator on a slot.
func (b *Builder) AddOperator(id, slot string) *Builder {
	b.specs = append(b.specs, operatorSpec{ID: id, Slot: slot})
	return b
}

// Connect adds a directed edge from producer to consumer.
func (b *Builder) Connect(from, to string) *Builder {
	b.edges = append(b.edges, edge{From: from, To: to})
	return b
}

// Chain connects a sequence of operators in order.
func (b *Builder) Chain(ids ...string) *Builder {
	for i := 0; i+1 < len(ids); i++ {
		b.Connect(ids[i], ids[i+1])
	}
	return b
}

// AddKeyedOperator expands a logical operator into maxParallelism keyed
// instances named logical#i, each alone on slot slot#i, of which the
// first parallelism serve traffic initially. Wire the group with
// ConnectToGroup/ConnectFromGroup.
func (b *Builder) AddKeyedOperator(logical, slot string, parallelism, maxParallelism int) *Builder {
	if maxParallelism < parallelism {
		maxParallelism = parallelism
	}
	grp := KeyedGroupSpec{Logical: logical, Parallelism: parallelism}
	for i := 0; i < maxParallelism; i++ {
		id := fmt.Sprintf("%s#%d", logical, i)
		sl := fmt.Sprintf("%s#%d", slot, i)
		b.specs = append(b.specs, operatorSpec{ID: id, Slot: sl})
		grp.Instances = append(grp.Instances, id)
		grp.Slots = append(grp.Slots, sl)
	}
	b.groups = append(b.groups, grp)
	return b
}

// ConnectToGroup connects a producer to every instance of a keyed group
// (the instance actually receiving each tuple is chosen at runtime by the
// partition table).
func (b *Builder) ConnectToGroup(from, logical string) *Builder {
	for _, inst := range b.groupInstances(logical) {
		b.Connect(from, inst)
	}
	return b
}

// ConnectFromGroup connects every instance of a keyed group to a
// consumer.
func (b *Builder) ConnectFromGroup(logical, to string) *Builder {
	for _, inst := range b.groupInstances(logical) {
		b.Connect(inst, to)
	}
	return b
}

func (b *Builder) groupInstances(logical string) []string {
	for _, g := range b.groups {
		if g.Logical == logical {
			return g.Instances
		}
	}
	// Unknown logical: produce one edge to the name itself so Build
	// reports "edge to unknown operator" with the logical ID.
	return []string{logical}
}

// Build validates the accumulated specification and returns the graph.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{
		ops: make(map[string]operatorSpec, len(b.specs)),
		out: make(map[string][]string),
		in:  make(map[string][]string),
	}
	for _, s := range b.specs {
		if s.ID == "" {
			return nil, fmt.Errorf("graph: empty operator id")
		}
		if s.Slot == "" {
			return nil, fmt.Errorf("graph: operator %q has no slot", s.ID)
		}
		for _, r := range reservedSlotNames {
			if s.Slot == r {
				return nil, fmt.Errorf("graph: operator %q on reserved slot %q", s.ID, s.Slot)
			}
		}
		if _, dup := g.ops[s.ID]; dup {
			return nil, fmt.Errorf("graph: duplicate operator %q", s.ID)
		}
		g.ops[s.ID] = s
		g.order = append(g.order, s.ID)
	}
	for _, e := range b.edges {
		if _, ok := g.ops[e.From]; !ok {
			return nil, fmt.Errorf("graph: edge from unknown operator %q", e.From)
		}
		if _, ok := g.ops[e.To]; !ok {
			return nil, fmt.Errorf("graph: edge to unknown operator %q", e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on %q", e.From)
		}
		for _, existing := range g.out[e.From] {
			if existing == e.To {
				return nil, fmt.Errorf("graph: duplicate edge %s->%s", e.From, e.To)
			}
		}
		g.out[e.From] = append(g.out[e.From], e.To)
		g.in[e.To] = append(g.in[e.To], e.From)
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	if len(g.Sources()) == 0 {
		return nil, fmt.Errorf("graph: no source operators")
	}
	if len(g.Sinks()) == 0 {
		return nil, fmt.Errorf("graph: no sink operators")
	}
	g.compileSlots()
	if err := g.adoptGroups(b.groups); err != nil {
		return nil, err
	}
	return g, nil
}

// adoptGroups validates and installs the keyed parallel groups.
func (g *Graph) adoptGroups(groups []KeyedGroupSpec) error {
	g.groupOf = make(map[string]groupRef)
	seen := make(map[string]bool)
	for gi, grp := range groups {
		if seen[grp.Logical] {
			return fmt.Errorf("graph: duplicate keyed group %q", grp.Logical)
		}
		seen[grp.Logical] = true
		if _, clash := g.ops[grp.Logical]; clash {
			return fmt.Errorf("graph: keyed group %q collides with an operator ID", grp.Logical)
		}
		if grp.Parallelism < 1 || grp.Parallelism > len(grp.Instances) {
			return fmt.Errorf("graph: keyed group %q parallelism %d outside [1,%d]",
				grp.Logical, grp.Parallelism, len(grp.Instances))
		}
		for i, inst := range grp.Instances {
			if _, dup := g.groupOf[inst]; dup {
				return fmt.Errorf("graph: operator %q in two keyed groups", inst)
			}
			spec, ok := g.ops[inst]
			if !ok {
				return fmt.Errorf("graph: keyed group %q instance %q not declared", grp.Logical, inst)
			}
			if spec.Slot != grp.Slots[i] {
				return fmt.Errorf("graph: keyed group %q instance %q on slot %q, want %q",
					grp.Logical, inst, spec.Slot, grp.Slots[i])
			}
			// A split pauses the whole slot, so an instance must not share
			// its slot with unrelated operators.
			if hosted := g.opsOnSlot[spec.Slot]; len(hosted) != 1 {
				return fmt.Errorf("graph: keyed instance %q shares slot %q with %v",
					inst, spec.Slot, hosted)
			}
			g.groupOf[inst] = groupRef{group: gi, inst: i}
		}
	}
	g.groups = append([]KeyedGroupSpec(nil), groups...)
	return nil
}

// compileSlots derives the slot-level projections once, after validation.
func (g *Graph) compileSlots() {
	slotSet := make(map[string]bool)
	g.opsOnSlot = make(map[string][]string)
	for _, id := range g.order {
		slot := g.ops[id].Slot
		slotSet[slot] = true
		g.opsOnSlot[slot] = append(g.opsOnSlot[slot], id)
	}
	g.slotNames = append(reservedSlotNames[:], sortedKeys(slotSet)...)
	g.slots = g.slotNames[firstSlot:]
	g.slotID = make(map[string]SlotID, len(g.slots))
	for i, slot := range g.slots {
		g.slotID[slot] = firstSlot + SlotID(i)
	}
	g.opID = make(map[string]OpID, len(g.order))
	g.opSlot = make([]SlotID, len(g.order))
	for i, id := range g.order {
		g.opID[id] = OpID(i)
		g.opSlot[i] = g.slotID[g.ops[id].Slot]
	}
	g.slotUp = make(map[string][]string, len(g.slots))
	g.slotDown = make(map[string][]string, len(g.slots))
	for _, slot := range g.slots {
		up := make(map[string]bool)
		down := make(map[string]bool)
		for _, id := range g.opsOnSlot[slot] {
			for _, o := range g.in[id] {
				if os := g.ops[o].Slot; os != slot {
					up[os] = true
				}
			}
			for _, o := range g.out[id] {
				if os := g.ops[o].Slot; os != slot {
					down[os] = true
				}
			}
		}
		g.slotUp[slot] = sortedKeys(up)
		g.slotDown[slot] = sortedKeys(down)
	}
	// Weighted cross-slot edges: one entry per feeding pair, weight = the
	// number of operator-level edges it aggregates. The placement planner
	// uses these to group communicating slots.
	weights := make(map[[2]string]int)
	for _, id := range g.order {
		from := g.ops[id].Slot
		for _, o := range g.out[id] {
			if to := g.ops[o].Slot; to != from {
				weights[[2]string{from, to}]++
			}
		}
	}
	g.slotEdges = make([]slotEdge, 0, len(weights))
	for pair, w := range weights {
		g.slotEdges = append(g.slotEdges, slotEdge{From: pair[0], To: pair[1], Weight: w})
	}
	sort.Slice(g.slotEdges, func(i, j int) bool {
		if g.slotEdges[i].From != g.slotEdges[j].From {
			return g.slotEdges[i].From < g.slotEdges[j].From
		}
		return g.slotEdges[i].To < g.slotEdges[j].To
	})
}

// OpID returns an operator's dense ID (NoOp for an unknown name).
func (g *Graph) OpID(name string) (OpID, bool) {
	if id, ok := g.opID[name]; ok {
		return id, true
	}
	return NoOp, false
}

// OpName returns the operator an ID stands for; "" for NoOp.
func (g *Graph) OpName(id OpID) string {
	if id < 0 {
		return ""
	}
	return g.order[id]
}

// OpSlot returns the slot hosting an operator.
func (g *Graph) OpSlot(id OpID) SlotID { return g.opSlot[id] }

// NumOps is one past the largest OpID.
func (g *Graph) NumOps() int { return len(g.order) }

// SlotID returns a slot's dense ID. Reserved pseudo-upstream names do not
// resolve: their IDs are the constants.
func (g *Graph) SlotID(name string) (SlotID, bool) {
	id, ok := g.slotID[name]
	return id, ok
}

// SlotName returns the slot (or pseudo-upstream) an ID stands for.
func (g *Graph) SlotName(id SlotID) string { return g.slotNames[id] }

// NumSlotIDs is one past the largest SlotID, reserved IDs included: the
// length of a table indexed by SlotID.
func (g *Graph) NumSlotIDs() int { return len(g.slotNames) }

// Operators returns operator IDs in declaration order.
func (g *Graph) Operators() []string {
	return append([]string(nil), g.order...)
}

// SlotOf returns the slot an operator is placed on.
func (g *Graph) SlotOf(id string) string { return g.ops[id].Slot }

// Downstream returns the consumers of an operator.
func (g *Graph) Downstream(id string) []string {
	return append([]string(nil), g.out[id]...)
}

// Upstream returns the producers feeding an operator.
func (g *Graph) Upstream(id string) []string {
	return append([]string(nil), g.in[id]...)
}

// Sources returns operators with no in-edges, in declaration order.
func (g *Graph) Sources() []string {
	var s []string
	for _, id := range g.order {
		if len(g.in[id]) == 0 {
			s = append(s, id)
		}
	}
	return s
}

// Sinks returns operators with no out-edges, in declaration order.
func (g *Graph) Sinks() []string {
	var s []string
	for _, id := range g.order {
		if len(g.out[id]) == 0 {
			s = append(s, id)
		}
	}
	return s
}

// Slots returns all slot names, sorted. The returned slice is cached and
// shared: callers must not mutate it.
func (g *Graph) Slots() []string { return g.slots }

// OpsOnSlot returns the operators placed on a slot, in declaration order.
// The returned slice is cached and shared: callers must not mutate it.
func (g *Graph) OpsOnSlot(slot string) []string { return g.opsOnSlot[slot] }

// SlotUpstreams returns the distinct slots that feed operators on the given
// slot from other slots, sorted. This is the node-level projection of
// Fig. 1b: token alignment operates on these. The returned slice is cached
// and shared: callers must not mutate it.
func (g *Graph) SlotUpstreams(slot string) []string { return g.slotUp[slot] }

// SlotDownstreams returns the distinct slots fed by operators on the given
// slot, excluding itself, sorted. The returned slice is cached and shared:
// callers must not mutate it.
func (g *Graph) SlotDownstreams(slot string) []string { return g.slotDown[slot] }

// slotEdge is one directed cross-slot communication edge: Weight counts the
// operator-level edges it aggregates.
type slotEdge struct {
	From, To string
	Weight   int
}

// SlotEdges returns the distinct cross-slot edges with their op-edge
// weights, sorted by (From, To). The returned slice is cached and shared:
// callers must not mutate it.
func (g *Graph) SlotEdges() []slotEdge { return g.slotEdges }

// KeyedGroups returns the keyed parallel groups in declaration order.
func (g *Graph) KeyedGroups() []KeyedGroupSpec {
	return append([]KeyedGroupSpec(nil), g.groups...)
}

// KeyedGroup returns the group expanding the given logical operator.
func (g *Graph) KeyedGroup(logical string) (KeyedGroupSpec, bool) {
	for _, grp := range g.groups {
		if grp.Logical == logical {
			return grp, true
		}
	}
	return KeyedGroupSpec{}, false
}

// KeyedGroupOf reports the keyed group an operator belongs to and its
// instance index within it; ok=false for operators outside any group.
func (g *Graph) KeyedGroupOf(op string) (grp KeyedGroupSpec, inst int, ok bool) {
	ref, ok := g.groupOf[op]
	if !ok {
		return KeyedGroupSpec{}, 0, false
	}
	return g.groups[ref.group], ref.inst, true
}

// SourceSlots returns the slots hosting at least one source operator.
func (g *Graph) SourceSlots() []string {
	set := make(map[string]bool)
	for _, id := range g.Sources() {
		set[g.ops[id].Slot] = true
	}
	return sortedKeys(set)
}

// SinkSlots returns the slots hosting at least one sink operator.
func (g *Graph) SinkSlots() []string {
	set := make(map[string]bool)
	for _, id := range g.Sinks() {
		set[g.ops[id].Slot] = true
	}
	return sortedKeys(set)
}

// TopoOrder returns a topological order of the operators, or an error if
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]string, error) {
	indeg := make(map[string]int, len(g.ops))
	for _, id := range g.order {
		indeg[id] = len(g.in[id])
	}
	var queue []string
	for _, id := range g.order {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	var topo []string
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		topo = append(topo, id)
		for _, dn := range g.out[id] {
			indeg[dn]--
			if indeg[dn] == 0 {
				queue = append(queue, dn)
			}
		}
	}
	if len(topo) != len(g.ops) {
		return nil, fmt.Errorf("graph: cycle detected")
	}
	return topo, nil
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
