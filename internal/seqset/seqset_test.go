package seqset

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// windowModel is the map-based reference for Window: every admitted
// sequence is remembered, and the window bound is applied at lookup.
type windowModel struct {
	seen map[uint64]bool
	hi   uint64
}

func (m *windowModel) admit(seq uint64) bool {
	if seq > m.hi {
		m.hi = seq
	} else if m.hi-seq >= WindowSize {
		return true
	} else if m.seen[seq] {
		return false
	}
	m.seen[seq] = true
	return true
}

// script turns bytes into a sequence stream that exercises both structures:
// dense runs, short-range reordering and repeats, jumps past a window and
// past a page, the two ends of the uint64 range, and resets. Each step
// calls visit(seq, reset).
func script(data []byte, visit func(seq uint64, reset bool)) {
	cur := uint64(0)
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		arg := func(n int) uint64 {
			var b [8]byte
			data = data[copy(b[:n], data):]
			return binary.LittleEndian.Uint64(b[:])
		}
		switch op % 8 {
		case 0, 1, 2: // dense run
			for n := arg(1) + 1; n > 0; n-- {
				cur++
				visit(cur, false)
			}
		case 3: // look back: a repeat or a late arrival
			visit(cur-arg(1), false)
		case 4: // look far back: across a window and a page
			visit(cur-arg(2), false)
		case 5: // jump ahead, leaving a hole
			cur += arg(2)
			visit(cur, false)
		case 6: // anywhere, including the ends of the range
			switch v := arg(8); v % 4 {
			case 0:
				cur = 0
			case 1:
				cur = math.MaxUint64
			default:
				cur = v
			}
			visit(cur, false)
		case 7:
			visit(0, true)
		}
	}
}

func checkScript(t *testing.T, data []byte) {
	t.Helper()
	var w Window
	wm := &windowModel{seen: map[uint64]bool{}}
	var s Set
	sm := map[uint64]bool{}
	step := 0
	script(data, func(seq uint64, reset bool) {
		step++
		if reset {
			w.Reset()
			wm = &windowModel{seen: map[uint64]bool{}}
			return
		}
		if got, want := w.Admit(seq), wm.admit(seq); got != want {
			t.Fatalf("step %d: Window.Admit(%d) = %v, model says %v", step, seq, got, want)
		}
		if got, want := s.Add(seq), !sm[seq]; got != want {
			t.Fatalf("step %d: Set.Add(%d) = %v, model says %v", step, seq, got, want)
		}
		sm[seq] = true
		if s.Len() != uint64(len(sm)) {
			t.Fatalf("step %d: Set.Len() = %d, model holds %d", step, s.Len(), len(sm))
		}
	})
}

func TestAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		checkScript(t, data)
	}
}

func FuzzAgainstMapModel(f *testing.F) {
	f.Add([]byte{0, 255, 3, 0, 3, 1, 4, 0, 5, 5, 0, 16, 4, 0, 16})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 6, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 7})
	f.Add([]byte{5, 255, 255, 0, 200, 7, 0, 200, 3, 9})
	f.Fuzz(checkScript)
}

func TestWindowEdges(t *testing.T) {
	var w Window
	admit := func(seq uint64, want bool) {
		t.Helper()
		if got := w.Admit(seq); got != want {
			t.Fatalf("Admit(%d) = %v, want %v", seq, got, want)
		}
	}
	admit(0, true)
	admit(0, false)
	admit(10, true)
	admit(3, true) // overtaken on the way, never seen: not a duplicate
	admit(3, false)
	admit(10+WindowSize, true)
	admit(10, true)  // fell out of the window: admitted, not recorded
	admit(10, true)  // (so it is admitted again)
	admit(11, true)  // lowest sequence still inside
	admit(11, false) //
	admit(3+WindowSize, true)
	admit(math.MaxUint64, true)
	admit(math.MaxUint64, false)
	admit(0, true)
	admit(math.MaxUint64-WindowSize+1, true)
	admit(math.MaxUint64-WindowSize+1, false)
	w.Reset()
	admit(math.MaxUint64-WindowSize+1, true)
	admit(5, true)
}

func TestSetEdges(t *testing.T) {
	var s Set
	for _, seq := range []uint64{0, math.MaxUint64, 1, pageSeqs, pageSeqs + 1} {
		if !s.Add(seq) {
			t.Fatalf("first Add(%d) reported a duplicate", seq)
		}
		if s.Add(seq) {
			t.Fatalf("second Add(%d) reported new", seq)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
}

// A dense stream keeps O(1) pages however long it runs, and releasing a
// page forgets nothing: every sequence of the run is still a member.
func TestSetDenseStreamBounded(t *testing.T) {
	const n = 2_000_000
	var s Set
	for seq := uint64(1); seq <= n; seq++ {
		if !s.Add(seq) {
			t.Fatalf("Add(%d) reported a duplicate", seq)
		}
		if s.Pages() > 1 {
			t.Fatalf("%d pages resident after %d dense sequences", s.Pages(), seq)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for _, seq := range []uint64{1, 2, pageSeqs, pageSeqs + 1, n / 2, n} {
		if s.Add(seq) {
			t.Fatalf("Add(%d) after the run reported new", seq)
		}
	}
}

// Pages filled out of order are released as soon as the gap below them
// closes, in one sweep.
func TestSetReleasesBehindAGap(t *testing.T) {
	var s Set
	for seq := uint64(pageSeqs + 1); seq <= 4*pageSeqs; seq++ {
		s.Add(seq)
	}
	if s.Pages() != 3 {
		t.Fatalf("%d pages resident above the gap, want 3", s.Pages())
	}
	for seq := uint64(1); seq <= pageSeqs; seq++ {
		s.Add(seq)
	}
	if s.Pages() != 0 {
		t.Fatalf("%d pages resident after the gap closed, want 0", s.Pages())
	}
	if s.Add(3*pageSeqs) || !s.Add(4*pageSeqs+1) {
		t.Fatal("membership wrong around the floor")
	}
}

func BenchmarkSetAddDense(b *testing.B) {
	var s Set
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i + 1))
	}
}
