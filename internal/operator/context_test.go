package operator

import (
	"bytes"
	"testing"
	"time"

	"mobistreams/internal/tuple"
)

// fakeRuntime is a controllable runtime for exercising the context's
// growth surface: settable simulated time and manually fired timers.
type fakeRuntime struct {
	outs   []emission
	now    time.Duration
	timers []time.Duration
}

func (f *fakeRuntime) Emit(t *tuple.Tuple) { f.outs = append(f.outs, emission{T: t}) }
func (f *fakeRuntime) EmitTo(to string, t *tuple.Tuple) bool {
	f.outs = append(f.outs, emission{To: to, T: t})
	return true
}
func (f *fakeRuntime) Now() time.Duration { return f.now }
func (f *fakeRuntime) SetTimer(at time.Duration) bool {
	f.timers = append(f.timers, at)
	return true
}

func TestKeyedStateEncodeDecodeRoundTrip(t *testing.T) {
	ks := newKeyedState()
	ks.put("b", []byte{2, 2})
	ks.put("a", []byte{1})
	ks.put("c", nil) // nil deletes: never stored
	enc := ks.encode()
	// Deterministic: re-encoding after a rebuild must be byte-identical.
	ks2 := newKeyedState()
	if err := ks2.decode(enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, ks2.encode()) {
		t.Fatal("encode/decode not byte-stable")
	}
	if ks2.Len() != 2 || !bytes.Equal(ks2.get("b"), []byte{2, 2}) {
		t.Fatalf("decoded contents wrong: %v", ks2.keys())
	}
	if err := ks2.decode(enc[:5]); err == nil {
		t.Fatal("short state accepted")
	}
	if err := ks2.decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated value accepted")
	}
}

func TestContextStateBindsKeyedStater(t *testing.T) {
	w := NewTimeWindow("w", time.Second)
	rt := &fakeRuntime{}
	ctx := NewContext(rt)
	ctx.BindState(w.KeyedState())
	ctx.state().put("k", []byte{9})
	if got := w.KeyedState().get("k"); !bytes.Equal(got, []byte{9}) {
		t.Fatal("context state not bound to the operator's store")
	}
	// Unbound contexts get a volatile store.
	ctx2 := NewContext(rt)
	ctx2.state().put("x", []byte{1})
	if ctx2.state().Len() != 1 {
		t.Fatal("volatile store lost writes")
	}
}

func TestRegistryValidate(t *testing.T) {
	reg := Registry{
		"a": func() Operator { return NewPassthrough("a") },
		"b": func() Operator { return NewPassthrough("WRONG") },
		"c": func() Operator { return nil },
	}
	if err := reg.Validate([]string{"a"}); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	if err := reg.Validate([]string{"a", "missing"}); err == nil {
		t.Fatal("missing factory accepted")
	}
	if err := reg.Validate([]string{"b"}); err == nil {
		t.Fatal("ID-mismatched factory accepted")
	}
	if err := reg.Validate([]string{"c"}); err == nil {
		t.Fatal("factory building nil accepted")
	}
}

func TestTimeWindowTumblesPerKey(t *testing.T) {
	w := NewTimeWindow("w", 10*time.Second)
	rt := &fakeRuntime{now: 3 * time.Second}
	ctx := NewContext(rt)
	ctx.BindState(w.KeyedState())

	in := func(seq uint64, kind string, v float64) {
		tt := &tuple.Tuple{Seq: seq, Kind: kind, Value: v}
		if err := w.Process(ctx, "", tt); err != nil {
			t.Fatal(err)
		}
	}
	in(1, "a", 2)
	in(2, "b", 10)
	in(3, "a", 4)
	if len(rt.timers) != 1 || rt.timers[0] != 10*time.Second {
		t.Fatalf("timer not armed at the aligned window end: %v", rt.timers)
	}
	if len(rt.outs) != 0 {
		t.Fatal("window emitted before closing")
	}

	rt.now = 10 * time.Second
	if err := w.OnTimer(ctx, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Sorted key order: a's mean 3, then b's mean 10.
	if len(rt.outs) != 2 {
		t.Fatalf("window emitted %d tuples, want 2", len(rt.outs))
	}
	if got := rt.outs[0].T.Value.(float64); got != 3 {
		t.Fatalf("key a mean = %v, want 3", got)
	}
	if got := rt.outs[1].T.Value.(float64); got != 10 {
		t.Fatalf("key b mean = %v, want 10", got)
	}
	if w.Windows() != 1 {
		t.Fatalf("windows closed = %d, want 1 (one close, two keys)", w.Windows())
	}
	// The close reset the accumulators; the next tuple re-arms.
	in(4, "a", 8)
	if len(rt.timers) != 2 || rt.timers[1] != 20*time.Second {
		t.Fatalf("window did not re-arm: %v", rt.timers)
	}
}

func TestTimeWindowSnapshotRestoreByteIdentical(t *testing.T) {
	w := NewTimeWindow("w", time.Second)
	rt := &fakeRuntime{}
	ctx := NewContext(rt)
	ctx.BindState(w.KeyedState())
	for i := 1; i <= 5; i++ {
		tt := &tuple.Tuple{Seq: uint64(i), Kind: "k", Value: float64(i)}
		if err := w.Process(ctx, "", tt); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewTimeWindow("w", time.Second)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _ := fresh.Snapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatal("restore not byte-identical")
	}
	if err := fresh.Restore([]byte{1}); err == nil {
		t.Fatal("short state accepted")
	}
	if _, ok := Operator(w).(DeltaSnapshotter); !ok {
		t.Fatal("TimeWindow does not implement DeltaSnapshotter")
	}
}

// Regression: a window close right after a restore must not discard
// checkpointed per-key sums whose keys have seen no post-restore tuple
// (no emission template yet) — they fold into the first window that can
// emit them.
func TestTimeWindowRetainsRestoredSumsWithoutTemplate(t *testing.T) {
	w := NewTimeWindow("w", time.Second)
	rt := &fakeRuntime{}
	ctx := NewContext(rt)
	ctx.BindState(w.KeyedState())
	for i := 1; i <= 4; i++ {
		kind := "a"
		if i%2 == 0 {
			kind = "b"
		}
		tt := &tuple.Tuple{Seq: uint64(i), Kind: kind, Value: float64(10 * i)}
		if err := w.Process(ctx, "", tt); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewTimeWindow("w", time.Second)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	frt := &fakeRuntime{}
	fctx := NewContext(frt)
	fctx.BindState(fresh.KeyedState())
	// Post-restore traffic only on key a; the close must emit a (merged
	// restored + fresh sums) and RETAIN b's restored accumulator.
	if err := fresh.Process(fctx, "", &tuple.Tuple{Seq: 9, Kind: "a", Value: 60.0}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.OnTimer(fctx, time.Second); err != nil {
		t.Fatal(err)
	}
	if len(frt.outs) != 1 {
		t.Fatalf("emitted %d tuples, want 1 (key a)", len(frt.outs))
	}
	// Key a: restored 10+30 plus fresh 60 over 3 tuples.
	if got := frt.outs[0].T.Value.(float64); got != (10+30+60)/3.0 {
		t.Fatalf("merged mean = %v", got)
	}
	if fresh.KeyedState().get("b") == nil {
		t.Fatal("restored sums for key b discarded without emission")
	}
	// Once b sees a tuple, the next close emits restored+fresh together.
	if err := fresh.Process(fctx, "", &tuple.Tuple{Seq: 10, Kind: "b", Value: 100.0}); err != nil {
		t.Fatal(err)
	}
	if err := fresh.OnTimer(fctx, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if len(frt.outs) != 2 {
		t.Fatalf("emitted %d tuples after b's close, want 2", len(frt.outs))
	}
	if got := frt.outs[1].T.Value.(float64); got != (20+40+100)/3.0 {
		t.Fatalf("key b merged mean = %v", got)
	}
}

// Regression: Run must bind a KeyedStater operator's own store, so state
// written through ctx.State() under Run is the state the operator
// checkpoints — same invariant the node executor provides.
func TestRunBindsKeyedStaterState(t *testing.T) {
	w := NewTimeWindow("w", time.Second)
	for i := 1; i <= 3; i++ {
		tt := &tuple.Tuple{Seq: uint64(i), Kind: "k", Value: float64(i)}
		if _, err := Run(w, "", tt); err != nil {
			t.Fatal(err)
		}
	}
	if w.KeyedState().get("k") == nil {
		t.Fatal("Run wrote keyed state into a throwaway store")
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewTimeWindow("w", time.Second)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.KeyedState().get("k") == nil {
		t.Fatal("accumulators written under Run did not reach the checkpoint")
	}
}
