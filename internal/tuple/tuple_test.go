package tuple

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCloneIsIndependent(t *testing.T) {
	orig := &Tuple{Seq: 7, Source: "s1", Kind: "image", Size: 1024, Created: time.Second}
	var s Slab
	c := s.Clone(orig)
	if *c != *orig {
		t.Fatalf("clone differs: %+v vs %+v", c, orig)
	}
	c.Seq = 8
	c.Replay = true
	if orig.Seq != 7 || orig.Replay {
		t.Fatal("mutating clone affected original")
	}
}

func TestItemWireSize(t *testing.T) {
	d := DataItem(&Tuple{Size: 4096})
	if d.WireSize() != 4096 {
		t.Fatalf("data wire size = %d, want 4096", d.WireSize())
	}
	m := MarkerItem(Marker{Kind: MarkerToken, Version: 3})
	if m.WireSize() != tokenSize {
		t.Fatalf("marker wire size = %d, want %d", m.WireSize(), tokenSize)
	}
	if m.Marker == nil || m.Marker.Version != 3 {
		t.Fatal("marker payload lost")
	}
}

func TestMarkerStrings(t *testing.T) {
	if got := (Marker{Kind: MarkerToken, Version: 5}).String(); got != "token(v5)" {
		t.Fatalf("String = %q", got)
	}
	if got := (Marker{Kind: MarkerReplayEnd, Version: 2}).String(); got != "replay-end(v2)" {
		t.Fatalf("String = %q", got)
	}
	if got := MarkerKind(99).String(); got != "marker(99)" {
		t.Fatalf("String = %q", got)
	}
}

func TestTupleString(t *testing.T) {
	tp := &Tuple{Seq: 3, Source: "cam", Kind: "image", Size: 2}
	if got := tp.String(); got != "tuple{cam#3 image 2B}" {
		t.Fatalf("String = %q", got)
	}
}

// Property: a slab clone always equals its original, and mutating it never
// leaks into the original or into its slab neighbours. A tuple kept from
// the first array stays intact while later carves refill the slab several
// times over.
func TestCloneProperty(t *testing.T) {
	var s Slab
	kept := s.Clone(&Tuple{Seq: 1, Source: "first", Size: 9})
	want := *kept
	f := func(seq uint64, src string, size int, replay bool) bool {
		orig := &Tuple{Seq: seq, Source: src, Size: size, Replay: replay}
		prev := s.Clone(orig)
		c := s.Clone(orig)
		next := s.Clone(orig)
		if *c != *orig || *prev != *orig || *next != *orig {
			return false
		}
		c.Seq++
		c.Replay = !c.Replay
		c.Source += "x"
		return *orig == Tuple{Seq: seq, Source: src, Size: size, Replay: replay} &&
			*prev == *orig && *next == *orig
	}
	// quick.Check runs 100 cases of 3 carves: > 9 refills of a 32-tuple array.
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if *kept != want {
		t.Fatalf("tuple kept from the first array changed: %+v, want %+v", *kept, want)
	}
}

// A carve allocates only when an array is used up: the arrays double up to
// slabSize, and then any slabSize carves in a row cost exactly one
// allocation.
func TestSlabAllocsPerArray(t *testing.T) {
	var s Slab
	src := &Tuple{Seq: 3, Kind: "k"}
	if allocs := testing.AllocsPerRun(1, func() { s.Clone(src) }); allocs != 1 {
		t.Fatalf("first carve allocates %.0f objects, want 1", allocs)
	}
	for i := 0; i < 4*slabSize; i++ {
		s.Clone(src)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < slabSize; i++ {
			s.Clone(src)
		}
	})
	if allocs != 1 {
		t.Fatalf("%d carves allocate %.0f objects, want 1", slabSize, allocs)
	}
}

// Property: a marker's wire size is constant and independent of version.
func TestMarkerWireSizeProperty(t *testing.T) {
	f := func(version uint64, kind bool) bool {
		k := MarkerToken
		if kind {
			k = MarkerReplayEnd
		}
		return MarkerItem(Marker{Kind: k, Version: version}).WireSize() == tokenSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
