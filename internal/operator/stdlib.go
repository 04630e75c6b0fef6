package operator

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"mobistreams/internal/tuple"
)

// FixedCost returns a cost function charging the same service time for
// every tuple.
func FixedCost(d time.Duration) func(*tuple.Tuple) time.Duration {
	return func(*tuple.Tuple) time.Duration { return d }
}

// mapOp applies a function to every tuple. Fn returns the tuple to emit, or
// nil to drop the input; a Fn that rewrites the tuple derives its output
// with ctx.Clone, never by mutating the input.
type mapOp struct {
	Base
	Fn      func(ctx *Context, t *tuple.Tuple) *tuple.Tuple
	CostFn  func(*tuple.Tuple) time.Duration
	SizeFn  func() int // modelled state size; nil means stateless
	counter uint64     // processed-tuple count, part of checkpointed state
	delta   DeltaTracker
}

// NewMap builds a map operator.
func NewMap(id string, fn func(ctx *Context, t *tuple.Tuple) *tuple.Tuple) *mapOp {
	return &mapOp{Base: Base{Name: id}, Fn: fn}
}

// Process implements Processor.
func (m *mapOp) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	m.counter++
	if out := m.Fn(ctx, t); out != nil {
		ctx.Emit(out)
	}
	return nil
}

// Cost implements Operator.
func (m *mapOp) Cost(t *tuple.Tuple) time.Duration {
	if m.CostFn == nil {
		return 0
	}
	return m.CostFn(t)
}

// Snapshot implements Operator.
func (m *mapOp) Snapshot() ([]byte, error) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], m.counter)
	return buf[:], nil
}

// Restore implements Operator.
func (m *mapOp) Restore(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("map %s: short state (%d bytes)", m.Name, len(data))
	}
	m.counter = binary.BigEndian.Uint64(data)
	return nil
}

// StateSize implements Operator.
func (m *mapOp) StateSize() int {
	if m.SizeFn == nil {
		return 8
	}
	return m.SizeFn()
}

// SnapshotDelta implements DeltaSnapshotter.
func (m *mapOp) SnapshotDelta(since uint64) ([]byte, bool) { return m.delta.Delta(since, m.Snapshot) }

// MarkSnapshot implements DeltaSnapshotter.
func (m *mapOp) MarkSnapshot(v uint64) { m.delta.Mark(v, m.Snapshot) }

// Count reports how many tuples the operator has processed (for tests).
func (m *mapOp) Count() uint64 { return m.counter }

// filter drops tuples failing a predicate.
type filter struct {
	Base
	Pred    func(*tuple.Tuple) bool
	CostFn  func(*tuple.Tuple) time.Duration
	dropped uint64
	passed  uint64
	delta   DeltaTracker
}

// NewFilter builds a filter operator.
func NewFilter(id string, pred func(*tuple.Tuple) bool) *filter {
	return &filter{Base: Base{Name: id}, Pred: pred}
}

// Process implements Processor.
func (f *filter) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	if f.Pred(t) {
		f.passed++
		ctx.Emit(t)
		return nil
	}
	f.dropped++
	return nil
}

// Cost implements Operator.
func (f *filter) Cost(t *tuple.Tuple) time.Duration {
	if f.CostFn == nil {
		return 0
	}
	return f.CostFn(t)
}

// Snapshot implements Operator.
func (f *filter) Snapshot() ([]byte, error) {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], f.dropped)
	binary.BigEndian.PutUint64(buf[8:16], f.passed)
	return buf[:], nil
}

// Restore implements Operator.
func (f *filter) Restore(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("filter %s: short state", f.Name)
	}
	f.dropped = binary.BigEndian.Uint64(data[0:8])
	f.passed = binary.BigEndian.Uint64(data[8:16])
	return nil
}

// StateSize implements Operator.
func (*filter) StateSize() int { return 16 }

// SnapshotDelta implements DeltaSnapshotter.
func (f *filter) SnapshotDelta(since uint64) ([]byte, bool) { return f.delta.Delta(since, f.Snapshot) }

// MarkSnapshot implements DeltaSnapshotter.
func (f *filter) MarkSnapshot(v uint64) { f.delta.Mark(v, f.Snapshot) }

// roundRobin routes each input tuple to one of its targets in rotation —
// BCP's dispatcher D spreading images across the parallel counters.
type roundRobin struct {
	Base
	Targets []string
	next    uint64
	delta   DeltaTracker
}

// NewRoundRobin builds a dispatcher over the given target operators.
func NewRoundRobin(id string, targets ...string) *roundRobin {
	return &roundRobin{Base: Base{Name: id}, Targets: targets}
}

// Process implements Processor.
func (r *roundRobin) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	if len(r.Targets) == 0 {
		return fmt.Errorf("roundrobin %s: no targets", r.Name)
	}
	to := r.Targets[r.next%uint64(len(r.Targets))]
	r.next++
	ctx.EmitTo(to, t)
	return nil
}

// Snapshot implements Operator.
func (r *roundRobin) Snapshot() ([]byte, error) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], r.next)
	return buf[:], nil
}

// Restore implements Operator.
func (r *roundRobin) Restore(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("roundrobin %s: short state", r.Name)
	}
	r.next = binary.BigEndian.Uint64(data)
	return nil
}

// StateSize implements Operator.
func (*roundRobin) StateSize() int { return 8 }

// SnapshotDelta implements DeltaSnapshotter.
func (r *roundRobin) SnapshotDelta(since uint64) ([]byte, bool) {
	return r.delta.Delta(since, r.Snapshot)
}

// MarkSnapshot implements DeltaSnapshotter.
func (r *roundRobin) MarkSnapshot(v uint64) { r.delta.Mark(v, r.Snapshot) }

// join pairs tuples from two upstream operators by sequence number: the
// paper's J operator joining boarding/alighting predictions for the same
// bus arrival. Unmatched tuples wait in per-side windows that are part of
// the operator's checkpointed state.
type join struct {
	Base
	Left, Right string
	// Merge returns the joined tuple (nil emits nothing); like mapOp.Fn it
	// derives a new tuple with ctx.Clone.
	Merge  func(ctx *Context, l, r *tuple.Tuple) *tuple.Tuple
	CostFn func(*tuple.Tuple) time.Duration
	// ExtraState models window buffers beyond the live tuples.
	ExtraState int
	left       map[uint64]*tuple.Tuple
	right      map[uint64]*tuple.Tuple
	delta      DeltaTracker
}

// NewJoin builds a join keyed by tuple sequence number.
func NewJoin(id, left, right string, merge func(ctx *Context, l, r *tuple.Tuple) *tuple.Tuple) *join {
	return &join{
		Base: Base{Name: id}, Left: left, Right: right, Merge: merge,
		left: make(map[uint64]*tuple.Tuple), right: make(map[uint64]*tuple.Tuple),
	}
}

// Process implements Processor.
func (j *join) Process(ctx *Context, from string, t *tuple.Tuple) error {
	var mine, other map[uint64]*tuple.Tuple
	switch from {
	case j.Left:
		mine, other = j.left, j.right
	case j.Right:
		mine, other = j.right, j.left
	default:
		return fmt.Errorf("join %s: tuple from unexpected upstream %q", j.Name, from)
	}
	if match, ok := other[t.Seq]; ok {
		delete(other, t.Seq)
		var l, r *tuple.Tuple
		if from == j.Left {
			l, r = t, match
		} else {
			l, r = match, t
		}
		if out := j.Merge(ctx, l, r); out != nil {
			ctx.Emit(out)
		}
		return nil
	}
	mine[t.Seq] = t
	return nil
}

// Cost implements Operator.
func (j *join) Cost(t *tuple.Tuple) time.Duration {
	if j.CostFn == nil {
		return 0
	}
	return j.CostFn(t)
}

// Snapshot implements Operator. The window contents are serialised as
// (seq, size) pairs per side in ascending sequence order — deterministic
// bytes keep delta patches minimal and make chain-vs-full restores
// byte-comparable. Payloads of windowed tuples are modelled by size only,
// which is what recovery fidelity requires for the simulated applications.
func (j *join) Snapshot() ([]byte, error) {
	buf := make([]byte, 0, 16+16*(len(j.left)+len(j.right)))
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	for _, side := range []map[uint64]*tuple.Tuple{j.left, j.right} {
		put(uint64(len(side)))
		seqs := make([]uint64, 0, len(side))
		for seq := range side {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
		for _, seq := range seqs {
			put(seq)
			put(uint64(side[seq].Size))
		}
	}
	return buf, nil
}

// Restore implements Operator.
func (j *join) Restore(data []byte) error {
	j.left = make(map[uint64]*tuple.Tuple)
	j.right = make(map[uint64]*tuple.Tuple)
	off := 0
	next := func() (uint64, error) {
		if off+8 > len(data) {
			return 0, fmt.Errorf("join %s: short state", j.Name)
		}
		v := binary.BigEndian.Uint64(data[off : off+8])
		off += 8
		return v, nil
	}
	for _, side := range []map[uint64]*tuple.Tuple{j.left, j.right} {
		n, err := next()
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			seq, err := next()
			if err != nil {
				return err
			}
			size, err := next()
			if err != nil {
				return err
			}
			side[seq] = &tuple.Tuple{Seq: seq, Size: int(size)}
		}
	}
	return nil
}

// StateSize implements Operator.
func (j *join) StateSize() int {
	live := 0
	for _, t := range j.left {
		live += t.Size
	}
	for _, t := range j.right {
		live += t.Size
	}
	return 16 + live + j.ExtraState
}

// SnapshotDelta implements DeltaSnapshotter: the per-side windows churn a
// few entries per checkpoint period, so the patch covers only the inserted
// and removed pairs rather than the whole window.
func (j *join) SnapshotDelta(since uint64) ([]byte, bool) { return j.delta.Delta(since, j.Snapshot) }

// MarkSnapshot implements DeltaSnapshotter.
func (j *join) MarkSnapshot(v uint64) { j.delta.Mark(v, j.Snapshot) }

// passthrough forwards tuples unchanged; used for stateless source and sink
// operators that only maintain inter-region connections (§III-D).
type passthrough struct {
	Base
}

// NewPassthrough builds a passthrough operator.
func NewPassthrough(id string) *passthrough {
	return &passthrough{Base: Base{Name: id}}
}

// Process implements Processor.
func (*passthrough) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	ctx.Emit(t)
	return nil
}

// window is a count-based sliding window: it keeps the last N numeric
// values and emits their running mean with every input. The window contents
// are checkpointed state; the window is append-mostly, so SnapshotDelta
// patches cover only the rotated tail rather than the whole buffer —
// the canonical big-state beneficiary of incremental checkpointing.
type window struct {
	Base
	// N bounds the window (default 16 when zero).
	N      int
	CostFn func(*tuple.Tuple) time.Duration
	// ExtraBytes models auxiliary window storage (pre-aggregation panes,
	// spill buffers) beyond the live values — it inflates StateSize but,
	// being static, never appears in a delta.
	ExtraBytes int
	vals       []float64
	count      uint64
	delta      DeltaTracker
	boxes      tuple.Boxes[float64] // the emitted means, carved on the executor
}

// NewWindow builds a sliding window over the last n values.
func NewWindow(id string, n int) *window {
	return &window{Base: Base{Name: id}, N: n}
}

// Process implements Processor: non-numeric payloads contribute their wire
// size, so the window is usable on any stream.
func (w *window) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	v, ok := t.Value.(float64)
	if !ok {
		v = float64(t.Size)
	}
	n := w.N
	if n <= 0 {
		n = 16
	}
	w.vals = append(w.vals, v)
	if len(w.vals) > n {
		w.vals = w.vals[1:]
	}
	w.count++
	var sum float64
	for _, x := range w.vals {
		sum += x
	}
	out := ctx.Clone(t)
	out.Value = w.boxes.Box(sum / float64(len(w.vals)))
	ctx.Emit(out)
	return nil
}

// Cost implements Operator.
func (w *window) Cost(t *tuple.Tuple) time.Duration {
	if w.CostFn == nil {
		return 0
	}
	return w.CostFn(t)
}

// Snapshot implements Operator.
func (w *window) Snapshot() ([]byte, error) {
	buf := make([]byte, 0, 16+8*len(w.vals))
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], w.count)
	buf = append(buf, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(len(w.vals)))
	buf = append(buf, tmp[:]...)
	for _, v := range w.vals {
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v))
		buf = append(buf, tmp[:]...)
	}
	return buf, nil
}

// Restore implements Operator.
func (w *window) Restore(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("window %s: short state", w.Name)
	}
	n := binary.BigEndian.Uint64(data[8:])
	if n > uint64(len(data)-16)/8 {
		return fmt.Errorf("window %s: short window state", w.Name)
	}
	w.count = binary.BigEndian.Uint64(data)
	w.vals = w.vals[:0]
	for i := 0; i < int(n); i++ {
		w.vals = append(w.vals, math.Float64frombits(binary.BigEndian.Uint64(data[16+8*i:])))
	}
	return nil
}

// StateSize implements Operator.
func (w *window) StateSize() int { return 16 + 8*len(w.vals) + w.ExtraBytes }

// SnapshotDelta implements DeltaSnapshotter.
func (w *window) SnapshotDelta(since uint64) ([]byte, bool) { return w.delta.Delta(since, w.Snapshot) }

// MarkSnapshot implements DeltaSnapshotter.
func (w *window) MarkSnapshot(v uint64) { w.delta.Mark(v, w.Snapshot) }

// aggregate maintains keyed running sums and counts, emitting the updated
// aggregate for the input's key. Keys are taken from the tuple's Kind
// unless KeyFn overrides. The key table is checkpointed state, serialised
// in sorted key order. A delta is a positional byte diff, so a new key
// rewrites every record sorted after it, not only the keys that changed.
type aggregate struct {
	Base
	KeyFn  func(*tuple.Tuple) string
	CostFn func(*tuple.Tuple) time.Duration
	// ExtraBytes models auxiliary aggregation state (sketches, dictionaries).
	ExtraBytes int
	accs       map[string]*aggAcc
	// sorted holds the accumulators in key order as of the last Snapshot and
	// fresh those first seen since, so a snapshot sorts only the newcomers
	// and merges them in instead of collecting and sorting every key.
	sorted []*aggAcc
	fresh  []*aggAcc
	delta  DeltaTracker
	boxes  tuple.Boxes[float64] // the emitted means, carved on the executor
}

// aggAcc is one key's running sum and count.
type aggAcc struct {
	key   string
	sum   float64
	count uint64
}

// NewAggregate builds a keyed running aggregate.
func NewAggregate(id string) *aggregate {
	return &aggregate{Base: Base{Name: id}, accs: make(map[string]*aggAcc)}
}

// acc returns key k's accumulator, creating it on first sight.
func (a *aggregate) acc(k string) *aggAcc {
	c := a.accs[k]
	if c == nil {
		c = &aggAcc{key: k}
		a.accs[k] = c
		a.fresh = append(a.fresh, c)
	}
	return c
}

func (a *aggregate) key(t *tuple.Tuple) string {
	if a.KeyFn != nil {
		return a.KeyFn(t)
	}
	return t.Kind
}

// Process implements Processor.
func (a *aggregate) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	v, ok := t.Value.(float64)
	if !ok {
		v = float64(t.Size)
	}
	c := a.acc(a.key(t))
	c.sum += v
	c.count++
	out := ctx.Clone(t)
	out.Value = a.boxes.Box(c.sum / float64(c.count))
	ctx.Emit(out)
	return nil
}

// Cost implements Operator.
func (a *aggregate) Cost(t *tuple.Tuple) time.Duration {
	if a.CostFn == nil {
		return 0
	}
	return a.CostFn(t)
}

// Snapshot implements Operator.
func (a *aggregate) Snapshot() ([]byte, error) {
	a.mergeFresh()
	buf := make([]byte, 0, 8+24*len(a.sorted))
	var tmp [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(len(a.sorted)))
	for _, c := range a.sorted {
		put(uint64(len(c.key)))
		buf = append(buf, c.key...)
		put(math.Float64bits(c.sum))
		put(c.count)
	}
	return buf, nil
}

// mergeFresh sorts the accumulators first seen since the last snapshot and
// merges them into sorted, back to front in place.
func (a *aggregate) mergeFresh() {
	if len(a.fresh) == 0 {
		return
	}
	sort.Slice(a.fresh, func(i, j int) bool { return a.fresh[i].key < a.fresh[j].key })
	i, j := len(a.sorted)-1, len(a.fresh)-1
	a.sorted = append(a.sorted, a.fresh...)
	for k := len(a.sorted) - 1; j >= 0; k-- {
		if i >= 0 && a.sorted[i].key > a.fresh[j].key {
			a.sorted[k] = a.sorted[i]
			i--
		} else {
			a.sorted[k] = a.fresh[j]
			j--
		}
	}
	a.fresh = a.fresh[:0]
}

// Restore implements Operator.
func (a *aggregate) Restore(data []byte) error {
	a.accs = make(map[string]*aggAcc)
	a.sorted, a.fresh = nil, nil
	if len(data) < 8 {
		return fmt.Errorf("aggregate %s: short state", a.Name)
	}
	// Lengths come from peers: compare them as unsigned against the bytes
	// left before converting, so no value can wrap an offset negative.
	n := binary.BigEndian.Uint64(data)
	if n > uint64(len(data)-8)/24 {
		return fmt.Errorf("aggregate %s: %d keys in %d bytes", a.Name, n, len(data))
	}
	off := 8
	for i := uint64(0); i < n; i++ {
		if len(data)-off < 8 {
			return fmt.Errorf("aggregate %s: short key header", a.Name)
		}
		kl := binary.BigEndian.Uint64(data[off:])
		off += 8
		if rest := uint64(len(data) - off); rest < 16 || kl > rest-16 {
			return fmt.Errorf("aggregate %s: short key entry", a.Name)
		}
		c := a.acc(string(data[off : off+int(kl)]))
		off += int(kl)
		c.sum = math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		c.count = binary.BigEndian.Uint64(data[off+8:])
		off += 16
	}
	return nil
}

// StateSize implements Operator.
func (a *aggregate) StateSize() int {
	size := 8 + a.ExtraBytes
	for k := range a.accs {
		size += 24 + len(k)
	}
	return size
}

// SnapshotDelta implements DeltaSnapshotter.
func (a *aggregate) SnapshotDelta(since uint64) ([]byte, bool) {
	return a.delta.Delta(since, a.Snapshot)
}

// MarkSnapshot implements DeltaSnapshotter.
func (a *aggregate) MarkSnapshot(v uint64) { a.delta.Mark(v, a.Snapshot) }
