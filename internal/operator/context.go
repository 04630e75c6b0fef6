package operator

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"mobistreams/internal/tuple"
)

// runtime is the execution environment a Context fronts: the node binds it
// to the slot's compiled pipeline (emissions route without allocation),
// while tests and offline tools bind collectors or fakes. EmitTo and
// SetTimer report whether the runtime honoured the request, so a Context
// can surface unsupported services without panicking.
type runtime interface {
	// Emit fans t out to the operator's downstream targets in graph
	// declaration order; on a sink operator it publishes t externally.
	Emit(t *tuple.Tuple)
	// EmitTo routes t to one named downstream operator; false means the
	// target is not reachable from this operator's slot.
	EmitTo(to string, t *tuple.Tuple) bool
	// Now returns the current simulated time.
	Now() time.Duration
	// SetTimer registers a one-shot timer for the owning operator at the
	// given simulated time; false means the runtime does not fire timers
	// (collector contexts) or the operator lacks an OnTimer handler.
	SetTimer(at time.Duration) bool
}

// Context is the emit-context handed to every Process call: the conduit
// for emissions plus the runtime services an operator can grow into. A
// Context is bound once per compiled pipeline (per operator) and reused
// across calls, so the steady-state emission path allocates nothing.
//
// Inside Process and OnTimer, derive output tuples with Clone: the
// context's slab is used only by the executor the context is bound to.
type Context struct {
	rt   runtime
	keys *KeyedState
	slab tuple.Slab
}

// NewContext binds a context to a runtime. The node runtime builds one per
// compiled operator; tests use Run or their own fakes.
func NewContext(rt runtime) *Context { return &Context{rt: rt} }

// Clone returns a shallow copy of t, carved from the context's tuple slab:
// the one way an operator derives an output tuple. The input stays
// untouched (it may be preserved upstream or emitted elsewhere), and
// deriving costs no per-tuple allocation.
func (c *Context) Clone(t *tuple.Tuple) *tuple.Tuple { return c.slab.Clone(t) }

// Emit pushes one fan-out emission into the pipeline: every downstream
// operator of the emitting operator receives t (sink operators publish it
// externally instead).
func (c *Context) Emit(t *tuple.Tuple) { c.rt.Emit(t) }

// EmitTo pushes one routed emission to the named downstream operator —
// dispatchers (BCP's D) target one consumer. It reports whether the
// runtime could route the emission; an unreachable target is dropped and
// logged, and the false return lets a
// dispatcher fall back to another target or surface an error instead.
func (c *Context) EmitTo(to string, t *tuple.Tuple) bool { return c.rt.EmitTo(to, t) }

// Now returns the current simulated time; windowed operators measure
// against it rather than wall time.
func (c *Context) Now() time.Duration { return c.rt.Now() }

// SetTimer registers a one-shot timer at the given simulated time. The
// executor calls the operator's OnTimer at a tuple boundary at or after
// the deadline. It reports whether the runtime accepted the registration
// (the operator must implement TimerOperator, and collector contexts do
// not fire timers).
func (c *Context) SetTimer(at time.Duration) bool { return c.rt.SetTimer(at) }

// state returns the operator's per-key state handle. When the operator
// exposes its own store (KeyedStater), the handle is that store and rides
// the operator's Snapshot/Restore into checkpoints; otherwise a
// context-local volatile store is created on first use.
func (c *Context) state() *KeyedState {
	if c.keys == nil {
		c.keys = newKeyedState()
	}
	return c.keys
}

// BindState points the context's state handle at an operator-owned store;
// the runtime calls it at pipeline compile time for KeyedStater operators.
func (c *Context) BindState(ks *KeyedState) { c.keys = ks }

// KeyedStater is implemented by operators that own a KeyedState and want
// Context.state to resolve to it, so per-key state written during Process
// is the same state the operator checkpoints.
type KeyedStater interface {
	KeyedState() *KeyedState
}

// KeyedState is a per-key byte-string store with deterministic
// serialisation: keys encode in sorted order, so snapshots are
// byte-comparable. Sorted order does not keep delta patches small:
// EncodePatch diffs by position, so one inserted key shifts every record
// after it into the patch.
type KeyedState struct {
	m map[string][]byte
}

// newKeyedState builds an empty store.
func newKeyedState() *KeyedState { return &KeyedState{m: make(map[string][]byte)} }

// get returns the value stored under key, or nil.
func (ks *KeyedState) get(key string) []byte { return ks.m[key] }

// put stores value under key; a nil value deletes the key.
func (ks *KeyedState) put(key string, value []byte) {
	if value == nil {
		delete(ks.m, key)
		return
	}
	ks.m[key] = value
}

// remove removes key.
func (ks *KeyedState) remove(key string) { delete(ks.m, key) }

// keys returns the stored keys in sorted order.
func (ks *KeyedState) keys() []string {
	keys := make([]string, 0, len(ks.m))
	for k := range ks.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Range calls fn for every key in the half-open interval [lo, hi) in
// sorted order, stopping early when fn returns false. An empty hi means
// "no upper bound" (every key >= lo). Unlike keys, Range materialises
// only the keys inside the interval, so scanning one shard of a
// partitioned keyspace does not copy the whole store — the property the
// elastic split handoff depends on.
func (ks *KeyedState) Range(lo, hi string, fn func(key string, value []byte) bool) {
	keys := ks.rangeKeys(lo, hi)
	for _, k := range keys {
		if !fn(k, ks.m[k]) {
			return
		}
	}
}

// rangeKeys collects the sorted keys in [lo, hi); hi == "" is unbounded.
func (ks *KeyedState) rangeKeys(lo, hi string) []string {
	var keys []string
	for k := range ks.m {
		if k >= lo && (hi == "" || k < hi) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// rangeSize reports the encoded size in bytes of the keys in [lo, hi)
// (hi == "" is unbounded) without materialising the encoding.
func (ks *KeyedState) rangeSize(lo, hi string) int {
	size := 8
	for k, v := range ks.m {
		if k >= lo && (hi == "" || k < hi) {
			size += 16 + len(k) + len(v)
		}
	}
	return size
}

// ExportRange serialises the keys in the given [lo, hi) ranges, which must
// not overlap, with the same deterministic framing as encode. The result
// feeds ImportRange on the receiving instance of a key-range split or
// merge, which takes every range at once or none.
func (ks *KeyedState) ExportRange(ranges ...[2]string) []byte {
	var keys []string
	size := 8
	for _, rg := range ranges {
		keys = append(keys, ks.rangeKeys(rg[0], rg[1])...)
		size += ks.rangeSize(rg[0], rg[1]) - 8
	}
	return ks.encodeKeys(keys, size)
}

// ImportRange merges entries produced by ExportRange (or encode) into the
// store, overwriting keys that already exist. Unlike decode it leaves
// keys outside the imported set untouched.
func (ks *KeyedState) ImportRange(data []byte) error {
	in := newKeyedState()
	if err := in.decode(data); err != nil {
		return err
	}
	for k, v := range in.m {
		ks.m[k] = v
	}
	return nil
}

// DeleteRange removes every key in [lo, hi) (hi == "" is unbounded) and
// reports how many were dropped — the donor side of a split handoff.
func (ks *KeyedState) DeleteRange(lo, hi string) int {
	n := 0
	for k := range ks.m {
		if k >= lo && (hi == "" || k < hi) {
			delete(ks.m, k)
			n++
		}
	}
	return n
}

// size reports the encoded size in bytes (state accounting).
func (ks *KeyedState) size() int {
	size := 8
	for k, v := range ks.m {
		size += 16 + len(k) + len(v)
	}
	return size
}

// encode serialises the store deterministically (sorted key order).
func (ks *KeyedState) encode() []byte {
	return ks.encodeKeys(ks.keys(), ks.size())
}

// encodeKeys serialises the given (sorted) keys with the encode framing.
func (ks *KeyedState) encodeKeys(keys []string, sizeHint int) []byte {
	buf := make([]byte, 0, sizeHint)
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(len(keys)))
	for _, k := range keys {
		put(uint64(len(k)))
		buf = append(buf, k...)
		put(uint64(len(ks.m[k])))
		buf = append(buf, ks.m[k]...)
	}
	return buf
}

// decode loads bytes produced by encode, replacing the store's contents.
// The bytes may come from a peer (a split/merge handoff, a checkpoint
// blob), so every count and length is checked, as unsigned, against the
// bytes left before it is used: a bad one is an error, never a panic.
func (ks *KeyedState) decode(data []byte) error {
	m := make(map[string][]byte)
	if len(data) < 8 {
		return fmt.Errorf("keyedstate: short header")
	}
	n := binary.BigEndian.Uint64(data)
	if n > uint64(len(data)-8)/16 {
		return fmt.Errorf("keyedstate: %d keys in %d bytes", n, len(data))
	}
	off := 8
	next := func() (uint64, error) {
		if len(data)-off < 8 {
			return 0, fmt.Errorf("keyedstate: short entry")
		}
		v := binary.BigEndian.Uint64(data[off:])
		off += 8
		return v, nil
	}
	for i := uint64(0); i < n; i++ {
		kl, err := next()
		if err != nil {
			return err
		}
		if kl > uint64(len(data)-off) {
			return fmt.Errorf("keyedstate: short key")
		}
		k := string(data[off : off+int(kl)])
		off += int(kl)
		vl, err := next()
		if err != nil {
			return err
		}
		if vl > uint64(len(data)-off) {
			return fmt.Errorf("keyedstate: short value")
		}
		m[k] = append([]byte(nil), data[off:off+int(vl)]...)
		off += int(vl)
	}
	ks.m = m
	return nil
}

// collector is the runtime behind Run: it records emissions and supports
// neither timers nor simulated time.
type collector struct {
	outs []emission
}

func (c *collector) Emit(t *tuple.Tuple) { c.outs = append(c.outs, emission{T: t}) }

func (c *collector) EmitTo(to string, t *tuple.Tuple) bool {
	c.outs = append(c.outs, emission{To: to, T: t})
	return true
}

func (*collector) Now() time.Duration          { return 0 }
func (*collector) SetTimer(time.Duration) bool { return false }
