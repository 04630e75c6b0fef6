package operator

import (
	"testing"
	"testing/quick"
	"time"

	"mobistreams/internal/tuple"
)

func tp(seq uint64, size int) *tuple.Tuple {
	return &tuple.Tuple{Seq: seq, Source: "s", Kind: "x", Size: size}
}

func TestMapTransformsAndCounts(t *testing.T) {
	m := NewMap("m", func(ctx *Context, in *tuple.Tuple) *tuple.Tuple {
		out := ctx.Clone(in)
		out.Kind = "y"
		return out
	})
	outs, err := Run(m, "", tp(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].T.Kind != "y" || outs[0].To != "" {
		t.Fatalf("outs = %+v", outs)
	}
	if m.Count() != 1 {
		t.Fatalf("count = %d", m.Count())
	}
}

func TestMapDropsNil(t *testing.T) {
	m := NewMap("m", func(*Context, *tuple.Tuple) *tuple.Tuple { return nil })
	outs, err := Run(m, "", tp(1, 10))
	if err != nil || len(outs) != 0 {
		t.Fatalf("outs = %v, err = %v", outs, err)
	}
}

func TestMapSnapshotRoundTrip(t *testing.T) {
	m := NewMap("m", func(_ *Context, in *tuple.Tuple) *tuple.Tuple { return in })
	for i := 0; i < 5; i++ {
		Run(m, "", tp(uint64(i), 1))
	}
	state, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMap("m", func(_ *Context, in *tuple.Tuple) *tuple.Tuple { return in })
	if err := m2.Restore(state); err != nil {
		t.Fatal(err)
	}
	if m2.Count() != 5 {
		t.Fatalf("restored count = %d, want 5", m2.Count())
	}
	if err := m2.Restore([]byte{1}); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestMapCostAndSize(t *testing.T) {
	m := NewMap("m", func(_ *Context, in *tuple.Tuple) *tuple.Tuple { return in })
	if m.Cost(tp(0, 1)) != 0 {
		t.Fatal("default cost not zero")
	}
	m.CostFn = FixedCost(3 * time.Second)
	if m.Cost(tp(0, 1)) != 3*time.Second {
		t.Fatal("fixed cost not applied")
	}
	if m.StateSize() != 8 {
		t.Fatalf("default state size = %d", m.StateSize())
	}
	m.SizeFn = func() int { return 1 << 20 }
	if m.StateSize() != 1<<20 {
		t.Fatal("size fn not applied")
	}
}

func TestFilterPartitions(t *testing.T) {
	f := NewFilter("f", func(t *tuple.Tuple) bool { return t.Seq%2 == 0 })
	kept := 0
	for i := uint64(0); i < 10; i++ {
		outs, err := Run(f, "", tp(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		kept += len(outs)
	}
	if kept != 5 {
		t.Fatalf("kept = %d, want 5", kept)
	}
	state, _ := f.Snapshot()
	f2 := NewFilter("f", nil)
	if err := f2.Restore(state); err != nil {
		t.Fatal(err)
	}
	if f2.dropped != 5 || f2.passed != 5 {
		t.Fatalf("restored dropped/passed = %d/%d", f2.dropped, f2.passed)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	r := NewRoundRobin("d", "c0", "c1", "c2")
	var got []string
	for i := uint64(0); i < 6; i++ {
		outs, err := Run(r, "", tp(i, 1))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, outs[0].To)
	}
	want := []string{"c0", "c1", "c2", "c0", "c1", "c2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinResumesAfterRestore(t *testing.T) {
	r := NewRoundRobin("d", "a", "b")
	Run(r, "", tp(0, 1)) // -> a
	state, _ := r.Snapshot()
	r2 := NewRoundRobin("d", "a", "b")
	if err := r2.Restore(state); err != nil {
		t.Fatal(err)
	}
	outs, _ := Run(r2, "", tp(1, 1))
	if outs[0].To != "b" {
		t.Fatalf("after restore routed to %s, want b", outs[0].To)
	}
}

func TestRoundRobinNoTargets(t *testing.T) {
	r := NewRoundRobin("d")
	if _, err := Run(r, "", tp(0, 1)); err == nil {
		t.Fatal("expected error with no targets")
	}
}

func TestJoinMatchesBySeq(t *testing.T) {
	j := NewJoin("j", "L", "R", func(ctx *Context, l, r *tuple.Tuple) *tuple.Tuple {
		out := ctx.Clone(l)
		out.Size = l.Size + r.Size
		return out
	})
	outs, err := Run(j, "L", tp(1, 10))
	if err != nil || len(outs) != 0 {
		t.Fatalf("unmatched join emitted: %v, %v", outs, err)
	}
	outs, err = Run(j, "R", tp(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].T.Size != 30 {
		t.Fatalf("join output = %+v", outs)
	}
	if j.Pending() != 0 {
		t.Fatalf("pending = %d after match", j.Pending())
	}
}

func TestJoinRejectsUnknownUpstream(t *testing.T) {
	j := NewJoin("j", "L", "R", func(_ *Context, l, _ *tuple.Tuple) *tuple.Tuple { return l })
	if _, err := Run(j, "X", tp(1, 1)); err == nil {
		t.Fatal("unknown upstream accepted")
	}
}

func TestJoinSnapshotRestoresWindows(t *testing.T) {
	j := NewJoin("j", "L", "R", func(_ *Context, l, _ *tuple.Tuple) *tuple.Tuple { return l })
	Run(j, "L", tp(1, 100))
	Run(j, "L", tp(2, 200))
	Run(j, "R", tp(9, 300))
	state, err := j.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	j2 := NewJoin("j", "L", "R", func(_ *Context, l, _ *tuple.Tuple) *tuple.Tuple { return l })
	if err := j2.Restore(state); err != nil {
		t.Fatal(err)
	}
	if j2.Pending() != 3 {
		t.Fatalf("restored pending = %d, want 3", j2.Pending())
	}
	// A matching right tuple for seq 2 must join against restored state.
	outs, err := Run(j2, "R", tp(2, 1))
	if err != nil || len(outs) != 1 {
		t.Fatalf("restored join failed: %v, %v", outs, err)
	}
	if err := j2.Restore([]byte{0, 1, 2}); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestJoinStateSizeTracksWindows(t *testing.T) {
	j := NewJoin("j", "L", "R", func(_ *Context, l, _ *tuple.Tuple) *tuple.Tuple { return l })
	j.ExtraState = 1000
	base := j.StateSize()
	Run(j, "L", tp(1, 500))
	if j.StateSize() != base+500 {
		t.Fatalf("state size = %d, want %d", j.StateSize(), base+500)
	}
}

func TestPassthroughForwards(t *testing.T) {
	p := NewPassthrough("k")
	in := tp(4, 44)
	outs, err := Run(p, "up", in)
	if err != nil || len(outs) != 1 || outs[0].T != in {
		t.Fatalf("passthrough: %v, %v", outs, err)
	}
	if p.StateSize() != 0 {
		t.Fatal("passthrough should be stateless")
	}
}

func TestRegistry(t *testing.T) {
	reg := Registry{"p": func() Operator { return NewPassthrough("p") }}
	if op := reg.New("p"); op.ID() != "p" {
		t.Fatalf("registry built %q", op.ID())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown factory did not panic")
		}
	}()
	reg.New("zzz")
}

// Property: RoundRobin distributes n tuples across k targets with per-target
// counts differing by at most one.
func TestRoundRobinFairnessProperty(t *testing.T) {
	f := func(n uint8, k uint8) bool {
		if k == 0 {
			return true
		}
		targets := make([]string, int(k%8)+1)
		for i := range targets {
			targets[i] = string(rune('a' + i))
		}
		r := NewRoundRobin("d", targets...)
		counts := make(map[string]int)
		for i := 0; i < int(n); i++ {
			outs, err := Run(r, "", tp(uint64(i), 1))
			if err != nil {
				return false
			}
			counts[outs[0].To]++
		}
		min, max := int(n), 0
		for _, tg := range targets {
			c := counts[tg]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Join emits exactly one output per matched pair regardless of
// arrival order.
func TestJoinPairingProperty(t *testing.T) {
	f := func(seqs []uint64, flip bool) bool {
		j := NewJoin("j", "L", "R", func(_ *Context, l, _ *tuple.Tuple) *tuple.Tuple { return l })
		seen := make(map[uint64]bool)
		emitted := 0
		want := 0
		for _, s := range seqs {
			s %= 16 // force collisions
			first, second := "L", "R"
			if flip {
				first, second = second, first
			}
			if !seen[s] {
				seen[s] = true
				outs, err := Run(j, first, tp(s, 1))
				if err != nil || len(outs) != 0 {
					return false
				}
				outs, err = Run(j, second, tp(s, 1))
				if err != nil {
					return false
				}
				emitted += len(outs)
				want++
			}
		}
		return emitted == want && j.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Keys reports how many keys the aggregate tracks (tests).
func (a *aggregate) Keys() int { return len(a.accs) }

// Pending reports how many tuples wait unmatched (for tests).
func (j *join) Pending() int { return len(j.left) + len(j.right) }

// Len reports how many keys are stored.
func (ks *KeyedState) Len() int { return len(ks.m) }

// Windows reports how many windows have closed with at least one tuple
// (tests).
func (w *TimeWindow) Windows() uint64 { return w.windows }

// Count reports processed tuples (tests).
func (w *window) Count() uint64 { return w.count }
