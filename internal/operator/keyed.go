package operator

import (
	"encoding/binary"
	"time"

	"mobistreams/internal/tuple"
)

// keyTag assigns a partition key to every tuple by rewriting its Kind —
// the compiled form of the stream builder's KeyBy stage. Downstream keyed
// routing (the elastic partition table) and keyed operators (TimeWindow,
// Aggregate, KeyedTally) all read the key from Kind, so tagging is the
// only coupling between user key functions and the runtime.
type keyTag struct {
	Base
	Fn func(*tuple.Tuple) string
}

// NewKeyTag builds a keyTag stage around a key function.
func NewKeyTag(id string, fn func(*tuple.Tuple) string) *keyTag {
	return &keyTag{Base: Base{Name: id}, Fn: fn}
}

// Process implements Operator: emits a clone carrying the key, leaving
// the input (possibly preserved upstream) untouched.
func (k *keyTag) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	out := ctx.Clone(t)
	out.Kind = k.Fn(t)
	ctx.Emit(out)
	return nil
}

// KeyedTally counts tuples per key (key = Kind) in a KeyedState and
// forwards every input unchanged, so end-to-end latency stays measurable
// through it. It is the canonical elastic operator: all of its state
// lives in the KeyedState, so a key-range split can hand any part of it
// to another instance via ExportRange/ImportRange.
type KeyedTally struct {
	Base
	CostFn func(*tuple.Tuple) time.Duration
	// ValueBytes pads each per-key record to model heavier per-key state
	// (min 8: the count itself).
	ValueBytes int
	state      *KeyedState
	delta      DeltaTracker
}

// NewKeyedTally builds a keyed tally.
func NewKeyedTally(id string) *KeyedTally {
	return &KeyedTally{Base: Base{Name: id}, state: newKeyedState()}
}

// Process implements Operator.
func (k *KeyedTally) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	width := k.ValueBytes
	if width < 8 {
		width = 8
	}
	rec := k.state.get(t.Kind)
	if len(rec) != width {
		rec = make([]byte, width)
	}
	binary.BigEndian.PutUint64(rec[:8], binary.BigEndian.Uint64(rec[:8])+1)
	k.state.put(t.Kind, rec)
	ctx.Emit(t)
	return nil
}

// Cost implements Operator.
func (k *KeyedTally) Cost(t *tuple.Tuple) time.Duration {
	if k.CostFn == nil {
		return 0
	}
	return k.CostFn(t)
}

// KeyedState implements KeyedStater: the tally's store is its whole
// partitionable state.
func (k *KeyedTally) KeyedState() *KeyedState { return k.state }

// Count reports the tally for one key (tests).
func (k *KeyedTally) Count(key string) uint64 {
	rec := k.state.get(key)
	if len(rec) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(rec[:8])
}

// Snapshot implements Operator.
func (k *KeyedTally) Snapshot() ([]byte, error) { return k.state.encode(), nil }

// Restore implements Operator.
func (k *KeyedTally) Restore(data []byte) error {
	k.delta.drop()
	return k.state.decode(data)
}

// StateSize implements Operator.
func (k *KeyedTally) StateSize() int { return k.state.size() }

// SnapshotDelta implements DeltaSnapshotter.
func (k *KeyedTally) SnapshotDelta(since uint64) ([]byte, bool) {
	return k.delta.Delta(since, k.Snapshot)
}

// MarkSnapshot implements DeltaSnapshotter.
func (k *KeyedTally) MarkSnapshot(v uint64) { k.delta.Mark(v, k.Snapshot) }
