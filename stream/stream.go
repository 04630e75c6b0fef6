// Package stream is the fluent, typed dataflow builder and the one way an
// application declares a region's dataflow: a pipeline is a chain of typed
// stages, and the builder compiles it into the graph.Graph +
// operator.Registry pair a region runs. Operators are numbered in the
// order their stages were declared, and each operator's upstream and
// downstream lists follow the order its edges were declared, so
// placements, checkpoints and sink outputs are byte-identical to a graph
// wired by hand with graph.Builder in the same order.
//
//	p, err := stream.From[float64]("sensor").
//		Map("smooth", func(v float64) float64 { return v * 0.5 }).
//		Filter("pos", func(v float64) bool { return v > 0 }).
//		Window("avg", 16).
//		Sink("out", func(v float64) { fmt.Println(v) }).
//		Build()
//
// Wiring errors the stringly-typed API only surfaced as runtime panics —
// unknown edge targets, duplicate operator IDs, payload-type mismatches at
// stage boundaries — are build-time errors here: Build validates the
// accumulated dataflow and returns every problem at once.
//
// Stage payload types ride Go generics. Same-type stages (Map, Filter,
// Sink, Via) are methods; type-changing stages are package functions
// (Apply, Through, Merge) because Go methods cannot introduce type
// parameters. A dataflow starts at From (a passthrough source) or Source
// (a source running its own operator); Merge joins dataflows. Each stage
// occupies its own slot named after the stage unless On pins it, so
// co-locating stages on one phone is one option away.
package stream

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// Option adjusts one stage declaration.
type Option func(*stage)

// On pins the stage to a named slot (a logical phone). Stages sharing a
// slot run co-located as a super-operator. Default: a slot named after
// the stage.
func On(slot string) Option {
	return func(st *stage) { st.slot = slot }
}

// WithCost models the stage's per-tuple CPU service time for operators
// built by the stream package (Map, Filter, Window, TimeWindow). Custom
// factories (Via, Through, Merge) model cost themselves.
func WithCost(d time.Duration) Option {
	return func(st *stage) { st.cost = d }
}

// WithParallelism declares the stage elastically keyed with n initially
// active instances. When the effective maximum parallelism exceeds 1 the
// stage compiles into a keyed group — instances id#0..id#maxN-1, each on
// its own slot, tuples routed by the key a KeyBy stage upstream assigned —
// otherwise it compiles into exactly the plain single stage it is today.
// Requires a KeyBy upstream; rejected on sinks (Build reports all
// violations together).
func WithParallelism(n int) Option {
	return func(st *stage) { st.par = n; st.hasPar = true }
}

// WithMaxParallelism places n instances for the stage (slots and all) of
// which only WithParallelism(k) serve traffic initially; the rest stay
// dormant until a live key-range split hands them load. The region's
// controller splits the group when an active instance backs up, and merges
// a cold instance back, when the system runs with AdaptivePlacement on;
// otherwise the group keeps its initial parallelism. Implies
// WithParallelism(1) when no initial parallelism is given.
func WithMaxParallelism(n int) Option {
	return func(st *stage) { st.maxPar = n; st.hasPar = true }
}

// WithLatencyBudget attaches an end-to-end latency budget to the stream at
// this stage: the tightest budget declared anywhere in the dataflow
// becomes the pipeline's QoS latency budget, which the runtime divides
// across the batching hops toward the sinks and each edge tunes its
// adaptive flush deadline under (see node.QoS). Rejected on sinks — a
// sink has no downstream edge to budget.
func WithLatencyBudget(d time.Duration) Option {
	return func(st *stage) { st.budget = d }
}

// Upstream is any typed stream handle — what Merge accepts as an input.
type Upstream interface {
	ref() (*core, string)
}

// Stream is a typed handle on the last declared stage; every fluent call
// appends a stage and returns a new handle. Handles are cheap and
// shareable: calling two stage methods on the same handle fans the stage's
// output out to both consumers.
type Stream[T any] struct {
	c  *core
	id string
}

func (s *Stream[T]) ref() (*core, string) { return s.c.root(), s.id }

// declared numbers stage declarations across every dataflow, so a Merge of
// separately started dataflows keeps its stages in declaration order.
var declared atomic.Uint64

// stage is one declared operator.
type stage struct {
	seq     uint64 // declaration order (see declared)
	id      string
	slot    string
	cost    time.Duration
	factory operator.Factory
	in, out reflect.Type // nil means any payload
	isSink  bool
	sink    func(*tuple.Tuple) bool
	sinkRT  reflect.Type // sink payload type (nil = any), for ambiguity checks

	// Elastic keyed parallelism (WithParallelism/WithMaxParallelism) and
	// the per-stream latency budget (WithLatencyBudget).
	keyBy  bool
	hasPar bool
	par    int
	maxPar int
	budget time.Duration
}

// parallelism resolves the stage's (initial, max) instance counts; max > 1
// means the stage compiles into a keyed group.
func (st *stage) parallelism() (par, maxPar int) {
	par, maxPar = st.par, st.maxPar
	if par < 1 {
		par = 1
	}
	if maxPar < par {
		maxPar = par
	}
	return par, maxPar
}

// edge is one declared connection, in declaration order. Route edges are
// validated identically to stage edges; the target just may not exist
// yet when the edge is recorded.
type edge struct {
	from, to string
}

// core accumulates the stages and edges of one dataflow; all handles of a
// pipeline share it. A Merge of separately started dataflows folds their
// cores into a new one, and into points each folded core at it.
type core struct {
	stages []*stage
	byID   map[string]*stage
	edges  []edge
	errs   []error
	into   *core
}

func newCore() *core { return &core{byID: make(map[string]*stage)} }

// root follows the folds a Merge made to the core that now holds the
// dataflow.
func (c *core) root() *core {
	for c.into != nil {
		c = c.into
	}
	return c
}

// union folds the distinct dataflows cs into one: stages in declaration
// order, edges and recorded errors in input order. A stage ID declared in
// two of them is a build error, as within one.
func union(cs []*core) *core {
	if len(cs) == 1 {
		return cs[0]
	}
	u := newCore()
	for _, c := range cs {
		for _, st := range c.stages {
			if _, dup := u.byID[st.id]; dup {
				u.errf("duplicate stage ID %q", st.id)
				continue
			}
			u.byID[st.id] = st
			u.stages = append(u.stages, st)
		}
		u.edges = append(u.edges, c.edges...)
		u.errs = append(u.errs, c.errs...)
		c.into = u
	}
	sort.SliceStable(u.stages, func(i, j int) bool { return u.stages[i].seq < u.stages[j].seq })
	return u
}

func (c *core) errf(format string, args ...interface{}) {
	c.errs = append(c.errs, fmt.Errorf("stream: "+format, args...))
}

// add declares a stage fed by the given upstream stage IDs.
func (c *core) add(id string, factory operator.Factory, in, out reflect.Type, ups []string, opts []Option) *stage {
	st := &stage{seq: declared.Add(1), id: id, factory: factory, in: in, out: out}
	for _, o := range opts {
		o(st)
	}
	if st.slot == "" {
		st.slot = id
	}
	if id == "" {
		c.errf("empty stage ID")
		return st
	}
	if _, dup := c.byID[id]; dup {
		c.errf("duplicate stage ID %q", id)
		return st
	}
	c.byID[id] = st
	c.stages = append(c.stages, st)
	for _, up := range ups {
		c.edges = append(c.edges, edge{from: up, to: id})
	}
	return st
}

// typeOf resolves a type parameter to its runtime type; `any` becomes the
// nil wildcard that matches every payload.
func typeOf[T any]() reflect.Type {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	if rt.Kind() == reflect.Interface && rt.NumMethod() == 0 {
		return nil
	}
	return rt
}

// From starts a dataflow at a source stage admitting payloads of type T
// (region.Ingest feeds it externally) and passing them on unchanged.
func From[T any](id string, opts ...Option) *Stream[T] {
	return Source[T](id, func() operator.Operator { return operator.NewPassthrough(id) }, opts...)
}

// Source starts a dataflow at a source stage that runs the factory's
// operator on every admitted payload of type T — a dispatcher sending each
// tuple to one consumer, say. The factory must build an operator whose ID
// matches the stage ID.
func Source[T any](id string, factory func() operator.Operator, opts ...Option) *Stream[T] {
	c := newCore()
	st := c.add(id, factory, typeOf[T](), typeOf[T](), nil, opts)
	return &Stream[T]{c: c, id: st.id}
}

// Map appends a same-type transformation stage.
func (s *Stream[T]) Map(id string, fn func(T) T, opts ...Option) *Stream[T] {
	st := s.c.root().add(id, mapFactory[T, T](id, func(v T) (T, bool) { return fn(v), true }, costOf(opts)),
		typeOf[T](), typeOf[T](), []string{s.id}, opts)
	return &Stream[T]{c: s.c, id: st.id}
}

// Apply appends a type-changing transformation stage: fn returns the new
// payload and whether to keep the tuple. (A package function: Go methods
// cannot introduce the output type parameter.)
func Apply[T, U any](s *Stream[T], id string, fn func(T) (U, bool), opts ...Option) *Stream[U] {
	st := s.c.root().add(id, mapFactory[T, U](id, fn, costOf(opts)),
		typeOf[T](), typeOf[U](), []string{s.id}, opts)
	return &Stream[U]{c: s.c, id: st.id}
}

// Filter appends a predicate stage dropping tuples that fail pred.
func (s *Stream[T]) Filter(id string, pred func(T) bool, opts ...Option) *Stream[T] {
	cost := costOf(opts)
	factory := func() operator.Operator {
		f := operator.NewFilter(id, func(t *tuple.Tuple) bool {
			v, ok := t.Value.(T)
			return ok && pred(v)
		})
		if cost > 0 {
			f.CostFn = operator.FixedCost(cost)
		}
		return f
	}
	st := s.c.root().add(id, factory, typeOf[T](), typeOf[T](), []string{s.id}, opts)
	return &Stream[T]{c: s.c, id: st.id}
}

// Window appends a count-based sliding window over the last n values,
// emitting the running mean (numeric payloads; others contribute their
// wire size).
func (s *Stream[T]) Window(id string, n int, opts ...Option) *Stream[float64] {
	cost := costOf(opts)
	factory := func() operator.Operator {
		w := operator.NewWindow(id, n)
		if cost > 0 {
			w.CostFn = operator.FixedCost(cost)
		}
		return w
	}
	st := s.c.root().add(id, factory, nil, typeOf[float64](), []string{s.id}, opts)
	return &Stream[float64]{c: s.c, id: st.id}
}

// TimeWindow appends a tumbling window over simulated time: per key (the
// tuple's Kind) it emits one mean tuple when the window closes — the
// emit-context contract's timer registration drives the close.
func (s *Stream[T]) TimeWindow(id string, width time.Duration, opts ...Option) *Stream[float64] {
	cost := costOf(opts)
	factory := func() operator.Operator {
		w := operator.NewTimeWindow(id, width)
		if cost > 0 {
			w.CostFn = operator.FixedCost(cost)
		}
		return w
	}
	st := s.c.root().add(id, factory, nil, typeOf[float64](), []string{s.id}, opts)
	return &Stream[float64]{c: s.c, id: st.id}
}

// KeyBy appends a key-assignment stage: every downstream keyed mechanism —
// elastic parallel routing, TimeWindow grouping, per-key state — reads the
// key fn assigns (carried on the tuple's Kind). Payloads that fail the
// type assertion keep their existing Kind.
func (s *Stream[T]) KeyBy(id string, fn func(T) string, opts ...Option) *Stream[T] {
	factory := func() operator.Operator {
		return operator.NewKeyTag(id, func(t *tuple.Tuple) string {
			if v, ok := t.Value.(T); ok {
				return fn(v)
			}
			return t.Kind
		})
	}
	st := s.c.root().add(id, factory, typeOf[T](), typeOf[T](), []string{s.id}, opts)
	st.keyBy = true
	return &Stream[T]{c: s.c, id: st.id}
}

// Via appends a custom operator stage that preserves the payload type. The
// factory must build an operator whose ID matches the stage ID.
func (s *Stream[T]) Via(id string, factory func() operator.Operator, opts ...Option) *Stream[T] {
	st := s.c.root().add(id, factory, typeOf[T](), typeOf[T](), []string{s.id}, opts)
	return &Stream[T]{c: s.c, id: st.id}
}

// Through appends a custom operator stage that changes the payload type to
// U (package function, like Apply).
func Through[T, U any](s *Stream[T], id string, factory func() operator.Operator, opts ...Option) *Stream[U] {
	st := s.c.root().add(id, factory, typeOf[T](), typeOf[U](), []string{s.id}, opts)
	return &Stream[U]{c: s.c, id: st.id}
}

// Merge appends a custom fan-in stage fed by every input, in input order
// (a join, a voter). Inputs from separately started dataflows (two From
// calls) are unioned into one dataflow whose stages keep their declaration
// order, so the merge stage and everything declared after it come last.
// The stage's input type is unconstrained — the operator sees each
// upstream's payload — and its output type is U.
func Merge[U any](id string, factory func() operator.Operator, inputs []Upstream, opts ...Option) *Stream[U] {
	if len(inputs) == 0 {
		// No dataflow to attach to; return a detached handle whose Build
		// reports the error.
		c := newCore()
		c.errf("merge stage %q has no inputs", id)
		return &Stream[U]{c: c, id: id}
	}
	var cores []*core
	ups := make([]string, 0, len(inputs))
	for _, in := range inputs {
		ic, iid := in.ref()
		if !slices.Contains(cores, ic) {
			cores = append(cores, ic)
		}
		ups = append(ups, iid)
	}
	c := union(cores)
	st := c.add(id, factory, nil, typeOf[U](), ups, opts)
	return &Stream[U]{c: c, id: st.id}
}

// Route declares an extra edge from this stage to the named stage — the
// escape hatch for wiring dispatchers (EmitTo targets) and diamonds the
// fluent chain cannot express. The target is resolved at Build: an unknown
// ID is a build error, not a runtime panic.
func (s *Stream[T]) Route(to string) *Stream[T] {
	c := s.c.root()
	c.edges = append(c.edges, edge{from: s.id, to: to})
	return s
}

// Sink appends a terminal stage publishing results externally; fn (may be
// nil) receives each deduplicated typed result via Pipeline.Output.
// Output dispatches by payload type, so at most one callback-bearing sink
// per payload type is allowed — Build rejects the ambiguous case (use
// distinct payload types, or one sink fanning out in application code).
func (s *Stream[T]) Sink(id string, fn func(T), opts ...Option) *Stream[T] {
	st := s.c.root().add(id, func() operator.Operator { return operator.NewPassthrough(id) },
		typeOf[T](), typeOf[T](), []string{s.id}, opts)
	st.isSink = true
	st.sinkRT = typeOf[T]()
	if fn != nil {
		st.sink = func(t *tuple.Tuple) bool {
			v, ok := t.Value.(T)
			if ok {
				fn(v)
			}
			return ok
		}
	}
	return &Stream[T]{c: s.c, id: st.id}
}

// edgeCompatible reports whether an upstream's payload type satisfies a
// downstream stage's input: equal types, the `any` wildcard (nil), or a
// concrete payload implementing the consumer's interface — the same cases
// the runtime's type assertion accepts.
func edgeCompatible(out, in reflect.Type) bool {
	if out == nil || in == nil || out == in {
		return true
	}
	return in.Kind() == reflect.Interface && out.Implements(in)
}

// sinkTypesOverlap reports whether payloads published by a sink of type a
// could satisfy a type-assert against b (or vice versa): equal types, the
// `any` wildcard (nil), or interface implementation in either direction.
func sinkTypesOverlap(a, b reflect.Type) bool {
	if a == nil || b == nil || a == b {
		return true
	}
	if a.Kind() == reflect.Interface && b.Implements(a) {
		return true
	}
	if b.Kind() == reflect.Interface && a.Implements(b) {
		return true
	}
	return false
}

// sinkName renders a sink payload type for diagnostics.
func sinkName(rt reflect.Type) string {
	if rt == nil {
		return "any"
	}
	return rt.String()
}

// Build validates the accumulated dataflow and compiles it into a
// Pipeline. All recorded problems — duplicate IDs, unknown Route targets,
// type mismatches at stage boundaries, graph-level defects (cycles, no
// source, no sink) — are returned together.
func (s *Stream[T]) Build() (*Pipeline, error) {
	return s.c.root().build()
}

func (c *core) build() (*Pipeline, error) {
	errs := append([]error(nil), c.errs...)
	for _, e := range c.edges {
		from, okF := c.byID[e.from]
		to, okT := c.byID[e.to]
		if !okT {
			errs = append(errs, fmt.Errorf("stream: edge %s->%s targets unknown stage %q", e.from, e.to, e.to))
			continue
		}
		if !okF {
			// Only reachable for Route edges recorded before an errored
			// stage declaration; stage errors are already collected.
			continue
		}
		if !edgeCompatible(from.out, to.in) {
			errs = append(errs, fmt.Errorf("stream: type mismatch on edge %s->%s: %s emits %v, %s consumes %v",
				e.from, e.to, e.from, from.out, e.to, to.in))
		}
	}
	// Elastic keyed parallelism and latency-budget validation. A stage
	// whose effective maximum parallelism exceeds 1 compiles into a keyed
	// group; WithParallelism(1) alone compiles into exactly the plain
	// stage, so its output is identical to an undeclared stage's.
	keyed := make(map[string]bool)
	var budget time.Duration
	for _, st := range c.stages {
		if st.hasPar {
			_, maxPar := st.parallelism()
			switch {
			case st.isSink:
				errs = append(errs, fmt.Errorf("stream: sink %q cannot be parallel — sinks publish externally and carry no key routing", st.id))
			case st.keyBy:
				errs = append(errs, fmt.Errorf("stream: KeyBy stage %q cannot itself be parallel — parallelism applies to the keyed stages it feeds", st.id))
			case !c.hasKeyByUpstream(st.id):
				errs = append(errs, fmt.Errorf("stream: stage %q declares parallelism but no KeyBy upstream assigns a key", st.id))
			default:
				if maxPar > 1 {
					keyed[st.id] = true
				}
			}
		}
		if st.budget > 0 {
			if st.isSink {
				errs = append(errs, fmt.Errorf("stream: sink %q cannot carry a latency budget — budgets attach to stages with downstream edges", st.id))
			} else if budget == 0 || st.budget < budget {
				budget = st.budget
			}
		}
	}
	for _, e := range c.edges {
		if keyed[e.from] && keyed[e.to] {
			errs = append(errs, fmt.Errorf("stream: keyed stage %q feeds keyed stage %q directly — keyed groups cannot chain; insert a non-keyed stage between them", e.from, e.to))
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	var gb graph.Builder
	reg := make(operator.Registry, len(c.stages))
	var sinks []func(*tuple.Tuple) bool
	var sinkStages []*stage
	for _, st := range c.stages {
		if keyed[st.id] {
			par, maxPar := st.parallelism()
			gb.AddKeyedOperator(st.id, st.slot, par, maxPar)
			for i := 0; i < maxPar; i++ {
				instID := fmt.Sprintf("%s#%d", st.id, i)
				base := st.factory
				reg[instID] = func() operator.Operator {
					op := base()
					if rn, ok := op.(operator.Renamable); ok {
						rn.SetID(instID)
					}
					return op
				}
			}
			continue
		}
		gb.AddOperator(st.id, st.slot)
		reg[st.id] = st.factory
		if st.isSink {
			// Output dispatches by payload type, so any pair of sinks
			// with overlapping payload types misroutes as soon as one of
			// them has a callback (the callback would also receive the
			// other sink's outputs). Equal types, interface/implementer
			// pairs and the `any` wildcard all overlap.
			for _, prev := range sinkStages {
				if (prev.sink != nil || st.sink != nil) && sinkTypesOverlap(prev.sinkRT, st.sinkRT) {
					return nil, fmt.Errorf("stream: sinks %q (%s) and %q (%s) have overlapping payload types and at least one callback — outputs would misroute; use distinct payload types or a single sink",
						prev.id, sinkName(prev.sinkRT), st.id, sinkName(st.sinkRT))
				}
			}
			sinkStages = append(sinkStages, st)
			if st.sink != nil {
				sinks = append(sinks, st.sink)
			}
		}
	}
	for _, e := range c.edges {
		switch {
		case keyed[e.to]:
			gb.ConnectToGroup(e.from, e.to)
		case keyed[e.from]:
			gb.ConnectFromGroup(e.from, e.to)
		default:
			gb.Connect(e.from, e.to)
		}
	}
	g, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if len(sinks) > 0 {
		// Output dispatches every terminal operator's publications to the
		// typed callbacks, so a stage that ended up terminal without being
		// declared a Sink would leak its outputs into another sink's
		// callback — reject it like any other misroute.
		for _, id := range g.Sinks() {
			if st := c.byID[id]; st != nil && !st.isSink {
				return nil, fmt.Errorf("stream: terminal stage %q is not a Sink — its outputs would reach the registered sink callbacks; end the branch with Sink (nil callback is fine) or wire it downstream", id)
			}
		}
	}
	// The converse wiring bug: a Sink that gained downstream consumers is
	// not terminal, never publishes externally, and its callback would
	// silently never fire.
	for _, st := range sinkStages {
		if len(g.Downstream(st.id)) > 0 {
			return nil, fmt.Errorf("stream: sink %q has downstream stages %v — it never publishes externally, so its callback would never fire; use a mid-pipeline stage instead", st.id, g.Downstream(st.id))
		}
	}
	if err := reg.Validate(g.Operators()); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &Pipeline{g: g, reg: reg, sinks: sinks, budget: budget}, nil
}

// hasKeyByUpstream reports whether a KeyBy stage reaches id through the
// recorded edges (transitively).
func (c *core) hasKeyByUpstream(id string) bool {
	preds := make(map[string][]string, len(c.edges))
	for _, e := range c.edges {
		preds[e.to] = append(preds[e.to], e.from)
	}
	seen := make(map[string]bool)
	queue := append([]string(nil), preds[id]...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if st := c.byID[cur]; st != nil && st.keyBy {
			return true
		}
		queue = append(queue, preds[cur]...)
	}
	return false
}

// Pipeline is a compiled dataflow: the same graph + registry pair the
// hand-wired API produces, plus the typed sink callbacks.
type Pipeline struct {
	g      *graph.Graph
	reg    operator.Registry
	sinks  []func(*tuple.Tuple) bool
	budget time.Duration
}

// LatencyBudget returns the tightest WithLatencyBudget declared in the
// dataflow (zero when none); AddRegion makes it the region's QoS latency
// budget.
func (p *Pipeline) LatencyBudget() time.Duration { return p.budget }

// Graph returns the compiled query network.
func (p *Pipeline) Graph() *graph.Graph { return p.g }

// Registry returns the compiled operator registry.
func (p *Pipeline) Registry() operator.Registry { return p.reg }

// HasOutput reports whether any sink stage registered a callback.
func (p *Pipeline) HasOutput() bool { return len(p.sinks) > 0 }

// Output dispatches one deduplicated sink result to the registered typed
// callbacks; AddRegion wires it to the region's sink.
func (p *Pipeline) Output(t *tuple.Tuple) {
	for _, fn := range p.sinks {
		if fn(t) {
			return
		}
	}
}

// mapFactory compiles a typed stage function onto the stdlib Map operator,
// so stream-built and hand-built pipelines checkpoint identically. Each
// instance carves its results' interface boxes from its own Boxes: an
// instance runs on one executor only, so no array is shared.
func mapFactory[T, U any](id string, fn func(T) (U, bool), cost time.Duration) operator.Factory {
	return func() operator.Operator {
		var boxes tuple.Boxes[U]
		m := operator.NewMap(id, func(ctx *operator.Context, t *tuple.Tuple) *tuple.Tuple {
			v, ok := t.Value.(T)
			if !ok {
				return nil // mismatched payload: drop, as Filter would
			}
			u, keep := fn(v)
			if !keep {
				return nil
			}
			out := ctx.Clone(t)
			out.Value = boxes.Box(u)
			return out
		})
		if cost > 0 {
			m.CostFn = operator.FixedCost(cost)
		}
		return m
	}
}

// costOf peeks the WithCost option ahead of stage construction (factories
// capture it).
func costOf(opts []Option) time.Duration {
	var probe stage
	for _, o := range opts {
		o(&probe)
	}
	return probe.cost
}
