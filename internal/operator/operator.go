// Package operator defines the operator programming model: a piece of code
// executed repeatedly on input tuples (§II-A), with snapshotable state and a
// calibrated service-time cost charged against the phone's CPU.
//
// Two data-plane contracts coexist. The primary, emit-context contract
// (Processor) hands each Process call a *Context whose Emit/EmitTo methods
// push results directly into the node's compiled slot pipeline — no
// per-tuple emission slice is allocated, and the Context also carries the
// runtime services an operator may grow into (simulated time, one-shot
// timers, a per-key state handle). The legacy contract (LegacyProcessor)
// returns a []Out slice per call; it keeps working through the adapter in
// Proc, so existing operators run unchanged under the new executor while
// new code targets the context contract.
package operator

import (
	"fmt"
	"time"

	"mobistreams/internal/tuple"
)

// Out is one emission from an operator. To names the consuming operator; an
// empty To fans the tuple out to every downstream operator in the graph.
// Routed emissions let dispatchers (BCP's D) target one consumer.
//
// Out is the currency of the legacy contract and of Run's collected
// results; the emit-context contract emits through *Context instead.
type Out struct {
	To string
	T  *tuple.Tuple
}

// Emit builds a fan-out emission.
func Emit(t *tuple.Tuple) Out { return Out{T: t} }

// EmitTo builds a routed emission.
func EmitTo(to string, t *tuple.Tuple) Out { return Out{To: to, T: t} }

// Operator is the unit of work that is placed on a phone, checkpointed and
// recovered (§II-A): identity, cost model and snapshotable state. Every
// operator additionally implements exactly one of the two processing
// contracts, Processor (emit-context, preferred) or LegacyProcessor
// (seed-era []Out slices, adapted transparently).
type Operator interface {
	// ID returns the operator's graph ID.
	ID() string
	// Cost returns the CPU service time for processing t on the phone.
	// The node runtime charges it against the phone before Process runs.
	Cost(t *tuple.Tuple) time.Duration
	// Snapshot serialises the operator's state for a checkpoint.
	Snapshot() ([]byte, error)
	// Restore loads state saved by Snapshot.
	Restore(data []byte) error
	// StateSize is the modelled on-the-wire size of the operator's state
	// in bytes. It may exceed len(Snapshot()) when the real deployment
	// would carry auxiliary state (model tables, window buffers) that
	// the simulation represents compactly.
	StateSize() int
}

// Processor is the emit-context processing contract: results are pushed
// through ctx (Emit for graph-order fan-out, EmitTo for routed emissions)
// as they are produced, straight into the compiled pipeline — the executor
// allocates nothing per tuple on this path.
type Processor interface {
	Operator
	// Process consumes one input tuple that arrived from the named
	// upstream operator. Source operators receive from == "" for
	// externally admitted tuples. Emissions go through ctx.
	Process(ctx *Context, from string, t *tuple.Tuple) error
}

// LegacyProcessor is the seed-era processing contract: one []Out slice per
// call. It remains fully supported through the Proc adapter; migrate to
// Processor for the allocation-free path.
type LegacyProcessor interface {
	Operator
	// Process consumes one input tuple and returns its emissions.
	Process(from string, t *tuple.Tuple) ([]Out, error)
}

// TimerOperator is implemented by operators that register one-shot timers
// via Context.SetTimer; the executor calls OnTimer at (or after) the
// registered simulated time, at a tuple boundary.
type TimerOperator interface {
	// OnTimer handles one fired timer. at is the deadline the timer was
	// registered for; emissions go through ctx exactly as in Process.
	OnTimer(ctx *Context, at time.Duration) error
}

// ProcFunc is a bound processing function: the uniform shape the executor
// calls regardless of which contract the operator implements.
type ProcFunc func(ctx *Context, from string, t *tuple.Tuple) error

// Proc resolves an operator's processing contract to a ProcFunc: a direct
// method value for Processor, the []Out-routing adapter for
// LegacyProcessor, or nil when the operator implements neither (an
// application wiring bug).
func Proc(op Operator) ProcFunc {
	switch o := op.(type) {
	case Processor:
		return o.Process
	case LegacyProcessor:
		return adaptLegacy(o)
	}
	return nil
}

// adaptLegacy wraps a legacy operator's Process into the emit-context
// shape: the returned slice's emissions are replayed through ctx in order,
// preserving the legacy interleaving of routed and fan-out emissions.
func adaptLegacy(o LegacyProcessor) ProcFunc {
	return func(ctx *Context, from string, t *tuple.Tuple) error {
		outs, err := o.Process(from, t)
		if err != nil {
			return err
		}
		for i := range outs {
			if outs[i].To != "" {
				ctx.EmitTo(outs[i].To, outs[i].T)
			} else {
				ctx.Emit(outs[i].T)
			}
		}
		return nil
	}
}

// Run executes one Process call under a collecting context and returns the
// emissions as a slice — the bridge tests and offline tools use to drive
// operators of either contract without a node runtime. Timers registered
// during the call are not fired; use a real runtime (or the node executor)
// for timer semantics.
func Run(op Operator, from string, t *tuple.Tuple) ([]Out, error) {
	proc := Proc(op)
	if proc == nil {
		return nil, fmt.Errorf("operator: %T implements neither processing contract", op)
	}
	col := &collector{}
	ctx := NewContext(col)
	// Uphold the KeyedStater invariant the node runtime provides: state
	// written through ctx.State() must be the state the operator
	// checkpoints, under Run exactly as under the executor.
	if ks, ok := op.(KeyedStater); ok {
		ctx.BindState(ks.KeyedState())
	}
	err := proc(ctx, from, t)
	return col.outs, err
}

// Base provides defaults for stateless, zero-cost operators; embed it and
// override what the operator needs.
type Base struct {
	Name string
}

// ID implements Operator.
func (b *Base) ID() string { return b.Name }

// Cost implements Operator with zero service time.
func (*Base) Cost(*tuple.Tuple) time.Duration { return 0 }

// Snapshot implements Operator with empty state.
func (*Base) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements Operator by ignoring state.
func (*Base) Restore([]byte) error { return nil }

// StateSize implements Operator with no modelled state.
func (*Base) StateSize() int { return 0 }

// SetID implements Renamable: the stream builder rebinds factory products
// to per-instance IDs when expanding a keyed stage into parallel
// instances.
func (b *Base) SetID(id string) { b.Name = id }

// Renamable is implemented by operators whose graph ID can be rebound
// after construction (every operator embedding Base). Keyed parallel
// expansion requires it: one logical stage factory must be able to
// produce instances named id#0, id#1, ...
type Renamable interface {
	SetID(id string)
}

// Factory builds a fresh operator instance. The controller ships "code" to
// phones at placement and recovery time; in this library, code is a factory.
type Factory func() Operator

// Registry maps operator IDs to factories for one application graph.
type Registry map[string]Factory

// New instantiates the operator with the given ID; it panics if the ID is
// unknown, which indicates an application wiring bug. Call Validate at
// assembly time to surface such bugs as errors instead.
func (r Registry) New(id string) Operator {
	f, ok := r[id]
	if !ok {
		panic("operator: no factory for " + id)
	}
	return f()
}

// Validate checks that every listed operator ID has a factory whose product
// reports the right ID and implements one of the two processing contracts.
// Regions run it at build time so wiring bugs fail fast with an error
// instead of panicking mid-placement.
func (r Registry) Validate(ids []string) error {
	for _, id := range ids {
		f, ok := r[id]
		if !ok {
			return fmt.Errorf("operator: no factory for %q", id)
		}
		op := f()
		if op == nil {
			return fmt.Errorf("operator: factory for %q built nil", id)
		}
		if got := op.ID(); got != id {
			return fmt.Errorf("operator: factory for %q built operator with ID %q", id, got)
		}
		if Proc(op) == nil {
			return fmt.Errorf("operator: %q (%T) implements neither processing contract", id, op)
		}
	}
	return nil
}
