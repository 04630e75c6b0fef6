package operator

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"mobistreams/internal/tuple"
)

// TimeWindow is a tumbling window over simulated time, and the first
// operator built natively on the emit-context contract's growth surface:
// it accumulates per-key running sums through the Context's keyed-state
// handle and closes windows through Context.SetTimer/OnTimer instead of
// counting tuples. At each window close it emits, per key (tuple Kind by
// default), one tuple carrying the window's mean value.
//
// Windows are processing-time: a tuple joins the window open when the
// hosting executor processes it, with boundaries aligned to multiples of
// Width in simulated time. Under rep-2 a standby replica processes the
// forwarded stream slightly later than the primary, so a tuple arriving
// near a boundary can fall into adjacent windows on the two replicas and
// a failover can change a window's mean (the sink's seq-based dedup keeps
// at most one emission per template tuple). The per-key sums are
// checkpointed state (deterministic sorted-key encoding; a new key shifts
// every later record into the positional delta);
// the pending timer is runtime state — a restored or migrated operator
// re-arms on its next input tuple.
type TimeWindow struct {
	Base
	// Width is the tumbling window width in simulated time (default 1 s).
	Width time.Duration
	// KeyFn extracts the grouping key (default: the tuple's Kind).
	KeyFn func(*tuple.Tuple) string
	// CostFn models per-tuple service time.
	CostFn func(*tuple.Tuple) time.Duration
	// ExtraBytes models auxiliary window storage beyond the live sums —
	// static between checkpoints, so never part of a delta.
	ExtraBytes int

	keys    *KeyedState             // per-key accumulator, checkpointed
	last    map[string]*tuple.Tuple // emission template per key, volatile
	windows uint64                  // closed-window count, checkpointed
	armed   bool                    // a timer is pending, volatile
	delta   DeltaTracker
	boxes   tuple.Boxes[float64] // the emitted means, carved on the executor
}

// NewTimeWindow builds a tumbling time window.
func NewTimeWindow(id string, width time.Duration) *TimeWindow {
	return &TimeWindow{
		Base:  Base{Name: id},
		Width: width,
		keys:  newKeyedState(),
		last:  make(map[string]*tuple.Tuple),
	}
}

// KeyedState implements KeyedStater: Context.state resolves to the
// operator's own store, so per-key sums written during Process are exactly
// the bytes the operator checkpoints.
func (w *TimeWindow) KeyedState() *KeyedState {
	if w.keys == nil {
		w.keys = newKeyedState()
	}
	return w.keys
}

func (w *TimeWindow) width() time.Duration {
	if w.Width > 0 {
		return w.Width
	}
	return time.Second
}

func (w *TimeWindow) key(t *tuple.Tuple) string {
	if w.KeyFn != nil {
		return w.KeyFn(t)
	}
	return t.Kind
}

// Process implements Operator: accumulate the tuple into its key's sum
// and arm the window-close timer if none is pending.
func (w *TimeWindow) Process(ctx *Context, _ string, t *tuple.Tuple) error {
	v, ok := t.Value.(float64)
	if !ok {
		v = float64(t.Size)
	}
	k := w.key(t)
	addAcc(ctx.state(), k, v)
	if w.last == nil {
		w.last = make(map[string]*tuple.Tuple)
	}
	w.last[k] = t
	if !w.armed {
		width := w.width()
		end := (ctx.Now()/width + 1) * width
		w.armed = ctx.SetTimer(end)
	}
	return nil
}

// OnTimer implements TimerOperator: close the window, emitting one mean
// tuple per key in sorted key order, then reset the emitted accumulators.
// A key whose sums were restored from a checkpoint but has seen no tuple
// since (so no emission template exists yet) is retained, not discarded:
// its restored contribution folds into the first window that can emit it.
// The next input tuple arms the next window.
func (w *TimeWindow) OnTimer(ctx *Context, _ time.Duration) error {
	w.armed = false
	st := ctx.state()
	emitted := false
	for _, k := range st.keys() {
		sum, cnt := decodeAcc(st.get(k))
		if cnt == 0 {
			st.remove(k)
			continue
		}
		tmpl := w.last[k]
		if tmpl == nil {
			continue // restored sums without a template: keep for the next close
		}
		out := ctx.Clone(tmpl)
		out.Value = w.boxes.Box(sum / float64(cnt))
		ctx.Emit(out)
		emitted = true
		st.remove(k)
		delete(w.last, k)
	}
	if emitted {
		w.windows++
	}
	return nil
}

// Cost implements Operator.
func (w *TimeWindow) Cost(t *tuple.Tuple) time.Duration {
	if w.CostFn == nil {
		return 0
	}
	return w.CostFn(t)
}

// Snapshot implements Operator: the closed-window count plus the keyed
// accumulators in deterministic order.
func (w *TimeWindow) Snapshot() ([]byte, error) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], w.windows)
	return append(tmp[:], w.KeyedState().encode()...), nil
}

// Restore implements Operator.
func (w *TimeWindow) Restore(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("timewindow %s: short state", w.Name)
	}
	w.windows = binary.BigEndian.Uint64(data)
	if w.keys == nil {
		w.keys = newKeyedState()
	}
	if err := w.keys.decode(data[8:]); err != nil {
		return fmt.Errorf("timewindow %s: %w", w.Name, err)
	}
	w.last = make(map[string]*tuple.Tuple)
	w.armed = false
	return nil
}

// StateSize implements Operator.
func (w *TimeWindow) StateSize() int { return 8 + w.KeyedState().size() + w.ExtraBytes }

// SnapshotDelta implements DeltaSnapshotter.
func (w *TimeWindow) SnapshotDelta(since uint64) ([]byte, bool) {
	return w.delta.Delta(since, w.Snapshot)
}

// MarkSnapshot implements DeltaSnapshotter.
func (w *TimeWindow) MarkSnapshot(v uint64) { w.delta.Mark(v, w.Snapshot) }

func encodeAcc(sum float64, cnt uint64) []byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], math.Float64bits(sum))
	binary.BigEndian.PutUint64(buf[8:16], cnt)
	return buf[:]
}

// addAcc folds one value into a key's accumulator, mutating the stored
// 16-byte slice in place: after a key's first tuple, accumulation does
// not allocate.
func addAcc(st *KeyedState, k string, v float64) {
	buf := st.get(k)
	if len(buf) != 16 {
		st.put(k, encodeAcc(v, 1))
		return
	}
	sum := math.Float64frombits(binary.BigEndian.Uint64(buf[0:8]))
	cnt := binary.BigEndian.Uint64(buf[8:16])
	binary.BigEndian.PutUint64(buf[0:8], math.Float64bits(sum+v))
	binary.BigEndian.PutUint64(buf[8:16], cnt+1)
}

func decodeAcc(data []byte) (float64, uint64) {
	if len(data) < 16 {
		return 0, 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(data[0:8])), binary.BigEndian.Uint64(data[8:16])
}
