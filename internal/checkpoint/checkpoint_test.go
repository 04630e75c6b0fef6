package checkpoint

import (
	"reflect"
	"testing"
	"testing/quick"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

func TestAlignmentSingleUpstream(t *testing.T) {
	a := NewAlignment([]string{"up"})
	st, err := a.OnToken("up", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatal("single upstream should complete immediately")
	}
	if a.Aligning() != 0 {
		t.Fatal("tracker should reset after completion")
	}
}

func TestAlignmentTwoUpstreamsStalls(t *testing.T) {
	a := NewAlignment([]string{"c", "d"})
	st, err := a.OnToken("c", 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete {
		t.Fatal("should not complete with one of two tokens")
	}
	if !reflect.DeepEqual(st.Stalled, []string{"c"}) {
		t.Fatalf("stalled = %v, want [c]", st.Stalled)
	}
	if a.Aligning() != 3 {
		t.Fatalf("aligning = %d", a.Aligning())
	}
	st, err = a.OnToken("d", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete {
		t.Fatal("both tokens in, should complete")
	}
	if a.Stalled() != nil {
		t.Fatal("stall must clear after completion")
	}
}

func TestAlignmentErrors(t *testing.T) {
	a := NewAlignment([]string{"x", "y"})
	if _, err := a.OnToken("zz", 1); err == nil {
		t.Fatal("unknown upstream accepted")
	}
	if _, err := a.OnToken("x", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OnToken("x", 1); err == nil {
		t.Fatal("duplicate token accepted")
	}
	if _, err := a.OnToken("y", 2); err == nil {
		t.Fatal("version mismatch accepted")
	}
}

func TestAlignmentAbort(t *testing.T) {
	a := NewAlignment([]string{"x", "y"})
	a.OnToken("x", 1)
	a.Abort()
	if a.Aligning() != 0 || a.Stalled() != nil {
		t.Fatal("abort did not reset")
	}
	// A fresh version can start after abort.
	if _, err := a.OnToken("x", 2); err != nil {
		t.Fatal(err)
	}
}

func TestBlobRoundTrip(t *testing.T) {
	m := operator.NewMap("m", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in })
	f := operator.NewFilter("f", func(*tuple.Tuple) bool { return true })
	for i := 0; i < 3; i++ {
		operator.Run(m, "", &tuple.Tuple{Seq: uint64(i)})
		operator.Run(f, "", &tuple.Tuple{Seq: uint64(i)})
	}
	blob, err := BuildBlob("n1", 7, []operator.Operator{m, f}, []byte("rt"))
	if err != nil {
		t.Fatal(err)
	}
	if blob.Version != 7 || blob.Slot != "n1" {
		t.Fatalf("blob meta: %+v", blob)
	}
	if blob.Size < 8+16+2 {
		t.Fatalf("blob size = %d, too small", blob.Size)
	}
	m2 := operator.NewMap("m", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in })
	f2 := operator.NewFilter("f", func(*tuple.Tuple) bool { return true })
	if err := RestoreBlob(blob, []operator.Operator{m2, f2}); err != nil {
		t.Fatal(err)
	}
	if m2.Count() != 3 {
		t.Fatalf("restored count = %d", m2.Count())
	}
}

func TestBlobSizeUsesModelledState(t *testing.T) {
	m := operator.NewMap("m", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in })
	m.SizeFn = func() int { return 4096 }
	blob, err := BuildBlob("n1", 1, []operator.Operator{m}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob.Size != 4096 {
		t.Fatalf("size = %d, want modelled 4096", blob.Size)
	}
}

func TestRestoreBlobMismatch(t *testing.T) {
	m := operator.NewMap("m", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in })
	blob, _ := BuildBlob("n1", 1, []operator.Operator{m}, nil)
	other := operator.NewPassthrough("other")
	if err := RestoreBlob(blob, []operator.Operator{other}); err == nil {
		t.Fatal("mismatched operator set accepted")
	}
	if err := RestoreBlob(blob, nil); err == nil {
		t.Fatal("empty operator set accepted")
	}
}

// Property: for any set of upstreams and any arrival permutation, alignment
// completes exactly on the last token and stalls exactly the arrived set
// before that.
func TestAlignmentPermutationProperty(t *testing.T) {
	f := func(permSeed uint32, n uint8) bool {
		k := int(n%6) + 1
		ups := make([]string, k)
		for i := range ups {
			ups[i] = string(rune('a' + i))
		}
		a := NewAlignment(ups)
		// Fisher-Yates with the seed as a tiny LCG.
		perm := make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		s := permSeed
		for i := k - 1; i > 0; i-- {
			s = s*1664525 + 1013904223
			j := int(s) % (i + 1)
			if j < 0 {
				j = -j
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		for idx, pi := range perm {
			st, err := a.OnToken(ups[pi], 9)
			if err != nil {
				return false
			}
			last := idx == k-1
			if st.Complete != last {
				return false
			}
			if !last && len(st.Stalled) != idx+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Abort cancels an in-progress alignment (failure during checkpoint: the
// partial checkpoint is discarded, §III-D).
func (a *Alignment) Abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reset()
}

// Aligning reports the version being aligned, or 0 when idle.
func (a *Alignment) Aligning() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// Stalled reports the upstreams currently stalled by a pending alignment.
func (a *Alignment) Stalled() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.version == 0 {
		return nil
	}
	return a.stalled()
}
