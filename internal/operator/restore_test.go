package operator

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/tuple"
)

// stateful is what a restore target offers: an operator, or a KeyedState
// seen through keyedTarget.
type stateful interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// keyedTarget restores a KeyedState the way ImportRange and the keyed
// operators do, through decode.
type keyedTarget struct{ *KeyedState }

func (k keyedTarget) Snapshot() ([]byte, error) { return k.encode(), nil }
func (k keyedTarget) Restore(data []byte) error { return k.decode(data) }

// restoreTargets are every stdlib operator with state, and KeyedState. The
// fuzz input's first byte picks one, modulo their count.
var restoreTargets = []struct {
	name  string
	fresh func() stateful
}{
	{"map", func() stateful { return NewMap("m", nil) }},
	{"filter", func() stateful { return NewFilter("f", nil) }},
	{"roundrobin", func() stateful { return NewRoundRobin("r", "a", "b") }},
	{"join", func() stateful { return NewJoin("j", "l", "r", nil) }},
	{"window", func() stateful { return NewWindow("w", 4) }},
	{"aggregate", func() stateful { return NewAggregate("a") }},
	{"timewindow", func() stateful { return NewTimeWindow("tw", time.Second) }},
	{"keyedtally", func() stateful { return NewKeyedTally("kt") }},
	{"keyedstate", func() stateful { return keyedTarget{newKeyedState()} }},
}

// realSnapshots drives one instance of each target with a few tuples and
// returns its snapshot, indexed like restoreTargets.
func realSnapshots(t testing.TB) [][]byte {
	t.Helper()
	in := func(seq uint64, kind string, v interface{}) *tuple.Tuple {
		return &tuple.Tuple{Seq: seq, Kind: kind, Size: 64, Value: v}
	}
	run := func(op Operator, from string, ts ...*tuple.Tuple) []byte {
		for _, tp := range ts {
			if _, err := Run(op, from, tp); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := op.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	m := NewMap("m", func(_ *Context, t *tuple.Tuple) *tuple.Tuple { return t })
	f := NewFilter("f", func(t *tuple.Tuple) bool { return t.Seq%2 == 0 })
	j := NewJoin("j", "l", "r", func(*Context, *tuple.Tuple, *tuple.Tuple) *tuple.Tuple { return nil })
	run(j, "l", in(1, "k", nil), in(2, "k", nil), in(5, "k", nil))
	ks := newKeyedState()
	ks.put("beta", []byte{2, 2})
	ks.put("alpha", []byte{1})
	ks.put("empty", []byte{})
	vals := []*tuple.Tuple{in(1, "x", 1.5), in(2, "y", 2.25), in(3, "x", -4.0), in(4, "z", "not a number")}
	return [][]byte{
		run(m, "", vals...),
		run(f, "", vals...),
		run(NewRoundRobin("r", "a", "b"), "", vals[:3]...),
		run(j, "r", in(2, "k", nil), in(7, "k", nil)),
		run(NewWindow("w", 3), "", vals...),
		run(NewAggregate("a"), "", vals...),
		run(NewTimeWindow("tw", time.Second), "", vals...),
		run(NewKeyedTally("kt"), "", vals...),
		ks.encode(),
	}
}

func u64s(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// oversized are lengths and counts that overflowed an int offset or a size
// product before the decoders compared them against the bytes left.
var oversized = []struct {
	target string
	data   []byte
}{
	{"aggregate", append(u64s(1, 1<<63|5), make([]byte, 16)...)},
	{"aggregate", u64s(1<<62, 0)},
	{"window", append(u64s(0, 1<<62), make([]byte, 8)...)},
	{"window", u64s(0, 1<<61|1)},
	{"keyedstate", append(u64s(1, 1<<63|5), make([]byte, 16)...)},
	{"keyedstate", append(append(append(u64s(1, 1), 'k'), u64s(1<<63|5)...), make([]byte, 8)...)},
	{"keyedstate", u64s(1<<63, 0)},
	{"timewindow", append(u64s(0, 1, 1<<63|5), make([]byte, 16)...)},
	{"keyedtally", append(u64s(1, 1<<63|5), make([]byte, 16)...)},
}

func targetIndex(t testing.TB, name string) int {
	for i, tg := range restoreTargets {
		if tg.name == name {
			return i
		}
	}
	t.Fatalf("no restore target %q", name)
	return 0
}

// A length or count larger than the bytes left is an error, not a panic:
// these inputs arrive from peers (split/merge handoffs, checkpoint blobs).
func TestRestoreRejectsOutOfRangeLengths(t *testing.T) {
	for _, c := range oversized {
		err := restoreTargets[targetIndex(t, c.target)].fresh().Restore(c.data)
		if err == nil {
			t.Errorf("%s restored %x", c.target, c.data)
		}
	}
	if err := newKeyedState().ImportRange(oversized[4].data); err == nil || !strings.Contains(err.Error(), "short key") {
		t.Errorf("ImportRange of an oversized key length: %v", err)
	}
}

// FuzzOperatorRestore feeds arbitrary bytes to every stdlib operator's
// Restore and to KeyedState.decode. Any input either errors or restores;
// restored state re-snapshots to bytes that restore to themselves. The
// seeds are real snapshots, which restore and re-snapshot byte-identical.
func FuzzOperatorRestore(f *testing.F) {
	for i, snap := range realSnapshots(f) {
		op := restoreTargets[i].fresh()
		if err := op.Restore(snap); err != nil {
			f.Fatalf("%s: restoring its own snapshot: %v", restoreTargets[i].name, err)
		}
		if re, err := op.Snapshot(); err != nil || !bytes.Equal(re, snap) {
			f.Fatalf("%s: re-snapshot = %x, %v; want %x", restoreTargets[i].name, re, err, snap)
		}
		f.Add(byte(i), snap)
	}
	for _, c := range oversized {
		f.Add(byte(targetIndex(f, c.target)), c.data)
	}
	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		tg := restoreTargets[int(which)%len(restoreTargets)]
		op := tg.fresh()
		if err := op.Restore(data); err != nil {
			return
		}
		snap, err := op.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot after restore: %v", tg.name, err)
		}
		again := tg.fresh()
		if err := again.Restore(snap); err != nil {
			t.Fatalf("%s: restoring a snapshot of restored state: %v", tg.name, err)
		}
		if re, _ := again.Snapshot(); !bytes.Equal(re, snap) {
			t.Fatalf("%s: snapshot not stable across restore:\n got %x\nwant %x", tg.name, re, snap)
		}
	})
}
