package node

import (
	"sync/atomic"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/keyed"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// pipeline is the compiled data plane for one slot: the operator chain,
// every operator's fan-out routes and the slot's marker routes, resolved
// once — at slot configuration, migration transfer-in or restore time —
// into an immutable structure the executor reads without locks or map
// lookups. A reconfiguration builds a fresh pipeline and swaps it in
// atomically (Node.pipe), so the steady-state path never observes a
// half-built topology.
//
// The outSeq/inHW counters are the only mutable state besides the
// executor's timers and samplers. They are owned by the executor goroutine
// and accessed with atomics, so control-plane snapshots taken while the
// executor is parked (pause, handoff) stay race-clean even against an
// executor wedged in a delivery retry.
type pipeline struct {
	g      *graph.Graph // the region's graph, which numbers every ID below
	slot   string
	slotID graph.SlotID
	ops    []compiledOp
	// local maps a graph OpID to its index in ops (-1 when another slot
	// hosts it), so a dequeued item finds its operator by one index.
	local []int32
	// directed resolves EmitTo targets (any downstream operator of this
	// slot's operators, same- or cross-slot) without consulting the graph.
	directed []route
	// upstreams is the queue order: the slot's graph upstreams, then
	// graph.ExternalSlot for source slots and graph.RerouteSlot for keyed
	// instances. Matches Node.qList index-for-index. upIdx is its inverse,
	// indexed by SlotID (-1 for a slot that does not feed this one).
	upstreams []graph.SlotID
	upIdx     []int32
	// downs is the sorted list of downstream slots (marker fan-out), and
	// the batcher's per-edge index.
	downs     []graph.SlotID
	isSource  bool
	isSink    bool
	sourceOps []graph.OpID

	// keyedGroup/keyedInst identify this slot's keyed-group membership
	// when it hosts one elastic instance (nil/0 otherwise). The executor
	// consults them to detect tuples whose key range moved away after a
	// live split, which are rerouted to the new owner instead of run;
	// keyedOps names the group's instances by graph ID, index for index.
	keyedGroup *keyed.Group
	keyedInst  int
	keyedOps   []graph.OpID

	// outSeq is the per-downstream-slot emission sequence (parallel to
	// downs); inHW the per-upstream processed watermark (parallel to
	// upstreams). Executor-owned, atomically accessed.
	outSeq []uint64
	inHW   []uint64

	// timers is the min-heap of pending one-shot operator timers
	// (Context.SetTimer). Executor-owned: registered during Process,
	// drained at tuple boundaries; a fresh pipeline starts empty and
	// timer-using operators re-arm on their next input.
	timers []opTimer

	// edgeWait holds each upstream edge's queue-wait histogram (parallel
	// to upstreams; entries nil when obs is off), resolved at compile
	// time so the dequeue path reads an immutable slice. timing picks the
	// items the executor times, per upstream.
	edgeWait []*obs.Histogram
	timing   []sampler
}

// opTimer is one pending timer: the simulated-time deadline and the owning
// operator's pipeline index.
type opTimer struct {
	at time.Duration
	op int
}

// compiledOp is one operator with its precompiled emission routes, its
// bound processing function (emit-context method value, or the legacy
// []Out adapter) and its reusable Context.
type compiledOp struct {
	id  string
	gid graph.OpID
	op  operator.Operator
	// proc is the uniform processing entry point: both contracts emit
	// through ctx, so the executor's hot path is contract-agnostic.
	proc operator.ProcFunc
	// ctx is the operator's bound emit-context; one per pipeline
	// incarnation, so steady-state emission allocates nothing.
	ctx *operator.Context
	// timer is the operator's OnTimer handler, nil when it has none.
	timer operator.TimerOperator
	// fanout lists the default (To == "") emission targets in graph
	// declaration order, preserving the legacy interleaving of local
	// recursion and cross-slot sends.
	fanout []route
	// keyed lists the keyed-group emission targets: each entry collapses
	// the group's per-instance edges into one partition-table dispatch —
	// the emit path resolves the tuple's key to the owning instance and
	// follows exactly that instance's route. One atomic load plus a
	// binary search; no locks, no allocations.
	keyed []keyedRoute
	// external marks a sink operator: no downstream, emissions publish.
	external bool
	// lat is the operator's Process-latency histogram, resolved from the
	// obs registry at compile time (nil when obs is off): the hot path
	// pays one nil check, never a map lookup or lock.
	lat *obs.Histogram
}

// opSink is the operator runtime the node binds behind each compiled
// operator's Context: emissions follow the precompiled routes, timers land
// in the pipeline's heap, and Now reads the simulated clock. One opSink is
// allocated per operator at compile time; nothing on the per-tuple path
// allocates.
type opSink struct {
	n   *Node
	p   *pipeline
	idx int
}

// Emit implements the operator runtime: graph-order fan-out, or external
// publication on a sink operator. Keyed-group targets resolve the tuple's
// key through the group's partition table to exactly one instance.
func (s *opSink) Emit(t *tuple.Tuple) {
	c := &s.p.ops[s.idx]
	if c.external {
		s.n.emitExternal(t)
		return
	}
	for i := range c.keyed {
		kr := &c.keyed[i]
		s.n.followRoute(s.p, c, kr.routes[kr.group.Owner(t.Kind)], t)
	}
	for _, r := range c.fanout {
		s.n.followRoute(s.p, c, r, t)
	}
}

// EmitTo implements the operator runtime: one routed emission; an unreachable
// target is logged and dropped, mirroring the legacy executor.
func (s *opSink) EmitTo(to string, t *tuple.Tuple) bool {
	r, ok := s.p.routeTo(to)
	if !ok {
		return false
	}
	s.n.followRoute(s.p, &s.p.ops[s.idx], r, t)
	return true
}

// Now implements the operator runtime.
func (s *opSink) Now() time.Duration { return s.n.clk.Now() }

// SetTimer implements the operator runtime: accepted only when the operator
// handles OnTimer.
func (s *opSink) SetTimer(at time.Duration) bool {
	if s.p.ops[s.idx].timer == nil {
		return false
	}
	s.p.addTimer(at, s.idx)
	return true
}

// route is one resolved emission target: a same-slot operator index, or a
// cross-slot destination identified by its downs index.
type route struct {
	toOp  graph.OpID
	local int // >= 0: index into pipeline.ops; -1: cross-slot
	down  int // index into pipeline.downs when local < 0
}

// keyedRoute is one collapsed keyed-group edge: routes is indexed by
// instance index, group resolves a key to that index through the live
// partition table.
type keyedRoute struct {
	group  *keyed.Group
	routes []route
}

// compilePipeline resolves a slot's topology against the graph and binds
// each operator's processing function and emit-context. It panics when an
// operator implements neither processing contract — a wiring bug
// operator.Registry.Validate surfaces as an error at region build time.
func (n *Node) compilePipeline(slot string, opIDs []string, ops []operator.Operator) *pipeline {
	g := n.graph
	p := &pipeline{g: g, slot: slot}
	p.slotID, _ = g.SlotID(slot)
	for _, d := range g.SlotDownstreams(slot) {
		id, _ := g.SlotID(d)
		p.downs = append(p.downs, id)
	}
	downIdx := make([]int, g.NumSlotIDs())
	for i, d := range p.downs {
		downIdx[d] = i
	}
	p.local = make([]int32, g.NumOps())
	for i := range p.local {
		p.local[i] = -1
	}
	for i, name := range opIDs {
		id, _ := g.OpID(name)
		p.local[id] = int32(i)
	}
	resolve := func(to string) route {
		id, _ := g.OpID(to)
		if li := p.local[id]; li >= 0 {
			return route{toOp: id, local: int(li)}
		}
		return route{toOp: id, local: -1, down: downIdx[g.OpSlot(id)]}
	}
	seen := make(map[string]bool)
	for i, name := range opIDs {
		c := compiledOp{id: name, op: ops[i]}
		c.gid, _ = g.OpID(name)
		targets := g.Downstream(name)
		if len(targets) == 0 {
			c.external = true
		}
		collapsed := make(map[string]bool)
		for _, tgt := range targets {
			r := resolve(tgt)
			if !seen[tgt] {
				seen[tgt] = true
				p.directed = append(p.directed, r)
			}
			// A target inside a keyed group collapses — once per group —
			// into a partition-table dispatch over all its instances
			// instead of a per-instance fanout entry. Markers are not
			// affected: they travel slot-level through p.downs.
			if gs, _, ok := g.KeyedGroupOf(tgt); ok {
				if grp := n.cfg.Keyed[gs.Logical]; grp != nil {
					if !collapsed[gs.Logical] {
						collapsed[gs.Logical] = true
						kr := keyedRoute{group: grp, routes: make([]route, len(gs.Instances))}
						for ii, inst := range gs.Instances {
							kr.routes[ii] = resolve(inst)
						}
						c.keyed = append(c.keyed, kr)
					}
					continue
				}
			}
			c.fanout = append(c.fanout, r)
		}
		p.ops = append(p.ops, c)
	}
	for _, name := range opIDs {
		if gs, inst, ok := g.KeyedGroupOf(name); ok {
			if grp := n.cfg.Keyed[gs.Logical]; grp != nil {
				p.keyedGroup = grp
				p.keyedInst = inst
				for _, in := range gs.Instances {
					id, _ := g.OpID(in)
					p.keyedOps = append(p.keyedOps, id)
				}
			}
		}
	}
	for _, up := range g.SlotUpstreams(slot) {
		id, _ := g.SlotID(up)
		p.upstreams = append(p.upstreams, id)
	}
	for _, name := range g.Sources() {
		if g.SlotOf(name) == slot {
			id, _ := g.OpID(name)
			p.isSource = true
			p.sourceOps = append(p.sourceOps, id)
		}
	}
	for _, name := range g.Sinks() {
		if g.SlotOf(name) == slot {
			p.isSink = true
		}
	}
	if p.isSource {
		p.upstreams = append(p.upstreams, graph.ExternalSlot)
	}
	if p.keyedGroup != nil {
		// Keyed instances take rerouted tuples on their own pseudo-queue,
		// kept index-parallel with the real upstreams but excluded from
		// token alignment (see configureSlot).
		p.upstreams = append(p.upstreams, graph.RerouteSlot)
	}
	p.upIdx = make([]int32, g.NumSlotIDs())
	for i := range p.upIdx {
		p.upIdx[i] = -1
	}
	for i, up := range p.upstreams {
		p.upIdx[up] = int32(i)
	}
	p.outSeq = make([]uint64, len(p.downs))
	p.inHW = make([]uint64, len(p.upstreams))
	p.edgeWait = make([]*obs.Histogram, len(p.upstreams))
	p.timing = make([]sampler, len(p.upstreams))
	for i, up := range p.upstreams {
		p.edgeWait[i] = n.obsReg.Hist(obs.EdgeWait, g.SlotName(up)+"->"+slot)
	}
	for i := range p.ops {
		c := &p.ops[i]
		c.lat = n.obsReg.Hist(obs.OpLatency, c.id)
		c.proc = operator.Proc(c.op)
		if c.proc == nil {
			panic("node: operator " + c.id + " implements neither processing contract")
		}
		if th, ok := c.op.(operator.TimerOperator); ok {
			c.timer = th
		}
		c.ctx = operator.NewContext(&opSink{n: n, p: p, idx: i})
		if ks, ok := c.op.(operator.KeyedStater); ok {
			c.ctx.BindState(ks.KeyedState())
		}
	}
	return p
}

// addTimer pushes a pending operator timer onto the min-heap. Executor-
// owned, like the rest of the timer state.
func (p *pipeline) addTimer(at time.Duration, op int) {
	p.timers = append(p.timers, opTimer{at: at, op: op})
	for i := len(p.timers) - 1; i > 0; {
		parent := (i - 1) / 2
		if p.timers[parent].at <= p.timers[i].at {
			break
		}
		p.timers[parent], p.timers[i] = p.timers[i], p.timers[parent]
		i = parent
	}
}

// nextTimerAt returns the earliest pending timer deadline.
func (p *pipeline) nextTimerAt() (time.Duration, bool) {
	if len(p.timers) == 0 {
		return 0, false
	}
	return p.timers[0].at, true
}

// timerDue reports whether a pending timer has reached its deadline.
func (p *pipeline) timerDue(now time.Duration) bool {
	return len(p.timers) > 0 && p.timers[0].at <= now
}

// popDueTimer removes and returns the earliest timer if it is due.
func (p *pipeline) popDueTimer(now time.Duration) (opTimer, bool) {
	if !p.timerDue(now) {
		return opTimer{}, false
	}
	top := p.timers[0]
	last := len(p.timers) - 1
	p.timers[0] = p.timers[last]
	p.timers = p.timers[:last]
	for i := 0; ; {
		s := i
		if l := 2*i + 1; l < len(p.timers) && p.timers[l].at < p.timers[s].at {
			s = l
		}
		if r := 2*i + 2; r < len(p.timers) && p.timers[r].at < p.timers[s].at {
			s = r
		}
		if s == i {
			break
		}
		p.timers[i], p.timers[s] = p.timers[s], p.timers[i]
		i = s
	}
	return top, true
}

// opIndex resolves an operator name to its pipeline index, or -1. It is
// for setup code (benchmarks, tests); the data path carries OpIDs and
// indexes p.local.
func (p *pipeline) opIndex(name string) int {
	if id, ok := p.g.OpID(name); ok {
		return int(p.local[id])
	}
	return -1
}

// opFor resolves a dequeued item's target operator to its pipeline index,
// or -1 when this slot does not host it.
func (p *pipeline) opFor(id graph.OpID) int {
	if uint(id) >= uint(len(p.local)) {
		return -1
	}
	return int(p.local[id])
}

// routeTo resolves an EmitTo target (the operator contract names it).
func (p *pipeline) routeTo(to string) (route, bool) {
	for _, r := range p.directed {
		if p.g.OpName(r.toOp) == to {
			return r, true
		}
	}
	return route{}, false
}

// upstreamOf resolves a stream's origin slot to its upstreams index, or -1.
func (p *pipeline) upstreamOf(from graph.SlotID) int {
	if uint(from) >= uint(len(p.upIdx)) {
		return -1
	}
	return int(p.upIdx[from])
}

// nextOutSeq assigns the next emission sequence on a downstream edge.
func (p *pipeline) nextOutSeq(down int) uint64 {
	return atomic.AddUint64(&p.outSeq[down], 1)
}

// noteInHW advances an upstream's processed watermark. The executor is the
// only writer, so a load-compare-store suffices.
func (p *pipeline) noteInHW(qi int, seq uint64) {
	if qi >= 0 && seq > atomic.LoadUint64(&p.inHW[qi]) {
		atomic.StoreUint64(&p.inHW[qi], seq)
	}
}

// operators returns the pipeline's operator chain in slot order.
func (p *pipeline) operators() []operator.Operator {
	ops := make([]operator.Operator, len(p.ops))
	for i := range p.ops {
		ops[i] = p.ops[i].op
	}
	return ops
}

// outSeqMap exports the non-zero emission sequences (checkpoint runtime
// state, wire-compatible with the pre-pipeline map representation).
func (p *pipeline) outSeqMap() map[string]uint64 {
	m := make(map[string]uint64, len(p.downs))
	for i, d := range p.downs {
		if v := atomic.LoadUint64(&p.outSeq[i]); v > 0 {
			m[p.g.SlotName(d)] = v
		}
	}
	return m
}

// inHWMap exports the non-zero processed watermarks, excluding the
// external and reroute pseudo-upstreams (never sequenced).
func (p *pipeline) inHWMap() map[string]uint64 {
	m := make(map[string]uint64, len(p.upstreams))
	for i, u := range p.upstreams {
		if u == graph.ExternalSlot || u == graph.RerouteSlot {
			continue
		}
		if v := atomic.LoadUint64(&p.inHW[i]); v > 0 {
			m[p.g.SlotName(u)] = v
		}
	}
	return m
}

// setCounters initialises the mutable counters from restored runtime state.
func (p *pipeline) setCounters(outSeq, inHW map[string]uint64) {
	for i, d := range p.downs {
		atomic.StoreUint64(&p.outSeq[i], outSeq[p.g.SlotName(d)])
	}
	for i, u := range p.upstreams {
		atomic.StoreUint64(&p.inHW[i], inHW[p.g.SlotName(u)])
	}
}
