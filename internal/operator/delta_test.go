package operator

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mobistreams/internal/tuple"
)

func TestPatchRoundTripBasic(t *testing.T) {
	cases := []struct{ old, new string }{
		{"", ""},
		{"", "hello"},
		{"hello", ""},
		{"hello", "hello"},
		{"hello world", "hello_world"},
		{"aaaaaaaa", "aaaabaaa"},
		{"short", "a much longer replacement"},
		{"a much longer original", "tiny"},
	}
	for _, c := range cases {
		patch := EncodePatch([]byte(c.old), []byte(c.new))
		got, err := ApplyPatch([]byte(c.old), patch)
		if err != nil {
			t.Fatalf("%q->%q: %v", c.old, c.new, err)
		}
		if !bytes.Equal(got, []byte(c.new)) {
			t.Fatalf("%q->%q: got %q", c.old, c.new, got)
		}
	}
}

func TestPatchIdenticalIsSmall(t *testing.T) {
	state := bytes.Repeat([]byte{7}, 64<<10)
	patch := EncodePatch(state, state)
	if len(patch) != patchHeaderBytes {
		t.Fatalf("identical-state patch is %d bytes, want header only (%d)", len(patch), patchHeaderBytes)
	}
}

func TestPatchSparseChangeIsSmall(t *testing.T) {
	old := make([]byte, 32<<10)
	new := append([]byte(nil), old...)
	new[100] ^= 1
	new[20000] ^= 1
	patch := EncodePatch(old, new)
	if len(patch) > 64 {
		t.Fatalf("2-byte change produced a %d-byte patch", len(patch))
	}
	got, err := ApplyPatch(old, patch)
	if err != nil || !bytes.Equal(got, new) {
		t.Fatalf("apply: %v, equal=%v", err, bytes.Equal(got, new))
	}
}

func TestApplyPatchRejectsGarbage(t *testing.T) {
	if _, err := ApplyPatch(nil, []byte{1, 2}); err == nil {
		t.Fatal("short patch accepted")
	}
	// Header claiming one range but no range bytes.
	bad := []byte{0, 0, 0, 4, 0, 0, 0, 1}
	if _, err := ApplyPatch(nil, bad); err == nil {
		t.Fatal("truncated range header accepted")
	}
	// Range writing past newLen.
	bad = append([]byte{0, 0, 0, 2, 0, 0, 0, 1}, []byte{0, 0, 0, 1, 0, 0, 0, 4, 'a', 'b', 'c', 'd'}...)
	if _, err := ApplyPatch(nil, bad); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
	// A new length no old bytes or ranges could fill (4 GiB here) is an
	// error, checked before the output is allocated.
	bad = []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ApplyPatch(make([]byte, 16), bad); err == nil {
		t.Fatal("oversized new length accepted")
	}
}

func TestPatchRoundTripProperty(t *testing.T) {
	f := func(seed int64, oldLen, newLen uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, int(oldLen)%4096)
		new := make([]byte, int(newLen)%4096)
		rng.Read(old)
		// Start from old where lengths overlap, then mutate a few runs,
		// which is the shape real operator state diffs take.
		copy(new, old)
		for i := copy(new, old); i < len(new); i++ {
			new[i] = byte(rng.Intn(256))
		}
		for m := 0; m < rng.Intn(8); m++ {
			if len(new) == 0 {
				break
			}
			at := rng.Intn(len(new))
			run := 1 + rng.Intn(32)
			for i := at; i < len(new) && i < at+run; i++ {
				new[i] ^= byte(1 + rng.Intn(255))
			}
		}
		got, err := ApplyPatch(old, EncodePatch(old, new))
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaTrackerLifecycle(t *testing.T) {
	m := NewMap("m", func(_ *Context, in *tuple.Tuple) *tuple.Tuple { return in })
	if _, ok := m.SnapshotDelta(0); ok {
		t.Fatal("delta available before any MarkSnapshot")
	}
	Run(m, "", tp(1, 1))
	m.MarkSnapshot(3)
	Run(m, "", tp(2, 1))
	if _, ok := m.SnapshotDelta(2); ok {
		t.Fatal("delta for the wrong basis version accepted")
	}
	patch, ok := m.SnapshotDelta(3)
	if !ok {
		t.Fatal("no delta against the marked version")
	}
	// Applying the patch to the marked-state bytes must equal the current
	// snapshot: the round-trip the checkpoint chain replays at restore.
	fresh := NewMap("m", func(_ *Context, in *tuple.Tuple) *tuple.Tuple { return in })
	Run(fresh, "", tp(1, 1))
	base, _ := fresh.Snapshot()
	want, _ := m.Snapshot()
	got, err := ApplyPatch(base, patch)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("patched state mismatch: %v", err)
	}
}

func TestStdlibOperatorsImplementDeltaSnapshotter(t *testing.T) {
	ops := []Operator{
		NewMap("m", func(_ *Context, in *tuple.Tuple) *tuple.Tuple { return in }),
		NewFilter("f", func(*tuple.Tuple) bool { return true }),
		NewRoundRobin("d", "a", "b"),
		NewJoin("j", "l", "r", func(_ *Context, l, _ *tuple.Tuple) *tuple.Tuple { return l }),
		NewWindow("w", 8),
		NewAggregate("a"),
	}
	for _, op := range ops {
		if _, ok := op.(DeltaSnapshotter); !ok {
			t.Fatalf("%s does not implement DeltaSnapshotter", op.ID())
		}
	}
}

func TestWindowProcessSnapshotRestore(t *testing.T) {
	w := NewWindow("w", 4)
	var lastMean float64
	for i := 1; i <= 6; i++ {
		tt := tp(uint64(i), 1)
		tt.Value = float64(i)
		outs, err := Run(w, "", tt)
		if err != nil || len(outs) != 1 {
			t.Fatalf("process %d: %v, outs=%d", i, err, len(outs))
		}
		lastMean = outs[0].T.Value.(float64)
	}
	// Window holds 3,4,5,6 after six inputs.
	if lastMean != (3+4+5+6)/4.0 {
		t.Fatalf("mean = %v", lastMean)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWindow("w", 4)
	if err := w2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _ := w2.Snapshot()
	if !bytes.Equal(snap, snap2) || w2.Count() != 6 {
		t.Fatalf("restore mismatch: count=%d", w2.Count())
	}
	if err := w2.Restore([]byte{1}); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestWindowDeltaSmallerThanFull(t *testing.T) {
	w := NewWindow("w", 512)
	for i := 0; i < 512; i++ {
		tt := tp(uint64(i), 1)
		tt.Value = float64(i)
		Run(w, "", tt)
	}
	w.MarkSnapshot(1)
	// One more input rotates one slot; the per-value deltas are small
	// because consecutive float64 window entries share most bytes after
	// the shift — the patch must at least beat a full rewrite.
	tt := tp(513, 1)
	tt.Value = 3.5
	Run(w, "", tt)
	patch, ok := w.SnapshotDelta(1)
	if !ok {
		t.Fatal("no delta")
	}
	full, _ := w.Snapshot()
	if len(patch) >= len(full)+patchHeaderBytes {
		t.Fatalf("delta %d bytes not smaller than full %d", len(patch), len(full))
	}
}

func TestAggregateProcessSnapshotRestore(t *testing.T) {
	a := NewAggregate("a")
	keys := []string{"x", "y", "x", "z", "x"}
	for i, k := range keys {
		tt := tp(uint64(i), 1)
		tt.Kind = k
		tt.Value = float64(i + 1)
		if _, err := Run(a, "", tt); err != nil {
			t.Fatal(err)
		}
	}
	if a.Keys() != 3 {
		t.Fatalf("keys = %d", a.Keys())
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a2 := NewAggregate("a")
	if err := a2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	snap2, _ := a2.Snapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatal("restore not byte-identical")
	}
	if err := a2.Restore([]byte{1}); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestAggregateDeltaTouchesOnlyChangedKeys(t *testing.T) {
	a := NewAggregate("a")
	for i := 0; i < 256; i++ {
		tt := tp(uint64(i), 1)
		tt.Kind = key256(i)
		tt.Value = 1.0
		Run(a, "", tt)
	}
	a.MarkSnapshot(7)
	// Touch one key: the delta should cover its entry, not the table.
	tt := tp(1000, 1)
	tt.Kind = key256(17)
	tt.Value = 2.0
	Run(a, "", tt)
	patch, ok := a.SnapshotDelta(7)
	if !ok {
		t.Fatal("no delta")
	}
	full, _ := a.Snapshot()
	if len(patch) > len(full)/8 {
		t.Fatalf("single-key delta is %d bytes of a %d-byte table", len(patch), len(full))
	}
	got, err := ApplyPatch(mustSnapAt(t, 256), patch)
	if err != nil || !bytes.Equal(got, full) {
		t.Fatalf("patched table mismatch: %v", err)
	}
}

// key256 gives fixed-width sortable keys so table offsets stay aligned.
func key256(i int) string {
	return string([]byte{'k', byte('0' + i/100), byte('0' + (i/10)%10), byte('0' + i%10)})
}

// mustSnapAt rebuilds the aggregate state after the first n inserts.
func mustSnapAt(t *testing.T, n int) []byte {
	t.Helper()
	a := NewAggregate("a")
	for i := 0; i < n; i++ {
		tt := tp(uint64(i), 1)
		tt.Kind = key256(i)
		tt.Value = 1.0
		Run(a, "", tt)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestWindowNonNumericUsesSize(t *testing.T) {
	w := NewWindow("w", 2)
	outs, err := Run(w, "", tp(1, 10))
	if err != nil || len(outs) != 1 {
		t.Fatalf("process: %v", err)
	}
	if outs[0].T.Value.(float64) != 10 {
		t.Fatalf("mean = %v", outs[0].T.Value)
	}
}

// refAggregateSnapshot is the encoder Aggregate.Snapshot replaced: collect
// every key from parallel sum/count maps, sort them all, serialise.
func refAggregateSnapshot(sums map[string]float64, counts map[string]uint64) []byte {
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := binary.BigEndian.AppendUint64(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(sums[k]))
		buf = binary.BigEndian.AppendUint64(buf, counts[k])
	}
	return buf
}

// The incrementally sorted key table serialises byte for byte like a full
// collect-and-sort, whatever order keys are first seen in: across a first
// snapshot, a second one after more keys (new ones interleaving the old in
// sort order, old ones updated), and a restore.
func TestAggregateSnapshotMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := NewAggregate("a")
	sums, counts := map[string]float64{}, map[string]uint64{}
	feed := func(n, keySpace int) {
		for i := 0; i < n; i++ {
			// Variable-width keys in shuffled first-seen order, skewed so
			// many repeat.
			k := fmt.Sprintf("k%d", rng.Intn(1+rng.Intn(keySpace)))
			v := rng.Float64()
			tt := tp(uint64(i), 1)
			tt.Kind, tt.Value = k, v
			if _, err := Run(a, "", tt); err != nil {
				t.Fatal(err)
			}
			sums[k] += v
			counts[k]++
		}
	}
	check := func(stage string, agg *aggregate) []byte {
		t.Helper()
		got, err := agg.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if want := refAggregateSnapshot(sums, counts); !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot differs from the full-sort encoding (%d vs %d bytes, %d keys)", stage, len(got), len(want), len(sums))
		}
		if agg.Keys() != len(sums) || agg.StateSize() != len(got) {
			t.Fatalf("%s: Keys %d / StateSize %d, want %d / %d", stage, agg.Keys(), agg.StateSize(), len(sums), len(got))
		}
		return got
	}
	check("empty", a)
	feed(3000, 500)
	check("first snapshot", a)
	check("unchanged", a)
	feed(3000, 5000)
	snap := check("second snapshot", a)
	b := NewAggregate("a")
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("restored", b)
	a = b
	feed(1000, 20000)
	check("restored, more keys", a)
}
