package tuple

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// checkBoxes boxes every value through one Boxes and checks each result is
// any(v) to every observer: reflect, type assertion, a type switch, fmt and
// (for comparable types) ==. The values are boxed first and checked after,
// so later carves refilling the array cannot disturb earlier values.
func checkBoxes[T any](t *testing.T, same func(a, b T) bool, vals ...T) {
	t.Helper()
	var b Boxes[T]
	got := make([]any, len(vals))
	for i, v := range vals {
		got[i] = b.Box(v)
	}
	for i, v := range vals {
		want := any(v)
		g := got[i]
		if gt, wt := reflect.TypeOf(g), reflect.TypeOf(want); gt != wt {
			t.Fatalf("value %d: reflect.TypeOf = %v, want %v", i, gt, wt)
		}
		if a, ok := g.(T); !ok || !same(a, v) {
			t.Fatalf("value %d: assertion gave %v, %v; want %v", i, a, ok, v)
		}
		switch a := g.(type) {
		case T:
			if !same(a, v) {
				t.Fatalf("value %d: type switch gave %v, want %v", i, a, v)
			}
		default:
			t.Fatalf("value %d: type switch missed %T", i, g)
		}
		if gs, ws := fmt.Sprint(g), fmt.Sprint(want); gs != ws {
			t.Fatalf("value %d: fmt.Sprint = %q, want %q", i, gs, ws)
		}
		if reflect.TypeOf(want) != nil && reflect.TypeOf(want).Comparable() && g != want {
			t.Fatalf("value %d: boxed value != any(v)", i)
		}
	}
}

func eq[T comparable](a, b T) bool { return a == b }

func TestBoxesMatchPlainConversion(t *testing.T) {
	type pair struct {
		A int32
		B float64
	}
	type blob struct {
		Name string
		Data []byte
	}
	type holder struct{ p *int }
	x, y := 7, 9
	fnA := func() int { return 1 }
	sameFn := func(a, b func() int) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	sameMap := func(a, b map[string]int) bool { return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer() }
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		// Pointer-free types: carved from the array.
		{"uint64", func(t *testing.T) { checkBoxes(t, eq[uint64], 0, 1, 255, 256, 1<<63, 0x0123456789abcdef) }},
		{"float64", func(t *testing.T) { checkBoxes(t, eq[float64], 0, -1.5, 12345.625, 1e300) }},
		{"int64", func(t *testing.T) { checkBoxes(t, eq[int64], -3, 0, 1<<40, -1<<63) }},
		{"two-field struct", func(t *testing.T) { checkBoxes(t, eq[pair], pair{1, 2.5}, pair{}, pair{-7, 1e9}) }},
		{"[2]int", func(t *testing.T) { checkBoxes(t, eq[[2]int], [2]int{1, 2}, [2]int{}, [2]int{-1, 1 << 50}) }},
		// Pointer-holding types: carved, and the GC must see the pointers.
		{"string", func(t *testing.T) { checkBoxes(t, eq[string], "", "a", "relay", string(make([]byte, 300))) }},
		{"[]byte", func(t *testing.T) { checkBoxes(t, bytes.Equal, nil, []byte{}, []byte{1, 2, 3}, make([]byte, 64)) }},
		{"struct with a slice", func(t *testing.T) {
			checkBoxes(t, func(a, b blob) bool { return a.Name == b.Name && bytes.Equal(a.Data, b.Data) },
				blob{"k", []byte{4}}, blob{}, blob{Name: "only-name"})
		}},
		// Pointer-shaped types: any(v) already allocates nothing.
		{"*int", func(t *testing.T) { checkBoxes(t, eq[*int], &x, nil, &y) }},
		{"map", func(t *testing.T) { checkBoxes(t, sameMap, map[string]int{"a": 1}, nil) }},
		{"func", func(t *testing.T) { checkBoxes(t, sameFn, fnA, nil) }},
		{"struct{p *int}", func(t *testing.T) { checkBoxes(t, eq[holder], holder{&x}, holder{}, holder{&y}) }},
		{"[1]*int", func(t *testing.T) { checkBoxes(t, eq[[1]*int], [1]*int{&x}, [1]*int{}) }},
		// Zero-size and interface types.
		{"struct{}", func(t *testing.T) { checkBoxes(t, eq[struct{}], struct{}{}, struct{}{}) }},
		{"any", func(t *testing.T) { checkBoxes(t, eq[any], any(uint64(5)), any("s"), any(2.5)) }},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// Values that would need a heap box cost one allocation per array; those
// whose conversion allocates nothing anyway cost nothing.
func TestBoxesAllocs(t *testing.T) {
	var b Boxes[uint64]
	for i := 0; i < 4*slabSize; i++ {
		b.Box(uint64(i) << 20)
	}
	v := uint64(1) << 40
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < slabSize; i++ {
			b.Box(v)
		}
	}); allocs != 1 {
		t.Fatalf("%d boxed uint64s allocate %.0f objects, want 1", slabSize, allocs)
	}
	var p Boxes[*int]
	x := 1
	if allocs := testing.AllocsPerRun(20, func() { p.Box(&x) }); allocs != 0 {
		t.Fatalf("boxing a pointer allocates %.0f objects, want 0", allocs)
	}
	var g Boxes[[]byte]
	payload := []byte{1}
	if allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 16; i++ {
			g.Grow(16 - i)
			g.Box(payload)
		}
	}); allocs != 1 {
		t.Fatalf("16 boxes under Grow allocate %.0f objects, want 1", allocs)
	}
}

// A producer hands its boxed values to another goroutine while it keeps
// carving the same arrays, as an executor emits to a downstream executor:
// a value is never written after it is handed out, so the reader sees it
// intact (the race detector checks the neighbouring writes).
func TestBoxesHandOff(t *testing.T) {
	type pair struct {
		A int32
		B int32
	}
	const n = 5000
	ch := make(chan any, 64) // a batch's worth in flight, so carving overlaps reading
	go func() {
		var b Boxes[pair]
		for i := 0; i < n; i++ {
			ch <- b.Box(pair{int32(i), int32(-i)})
		}
		close(ch)
	}()
	i := 0
	for v := range ch {
		if got := v.(pair); got != (pair{int32(i), int32(-i)}) {
			t.Fatalf("value %d = %+v", i, got)
		}
		i++
	}
	if i != n {
		t.Fatalf("received %d values, want %d", i, n)
	}
}

// The interfaces are the only references to the carved arrays and to the
// values' own heap data: both must survive collections while the arrays
// around them fill and are abandoned.
func TestBoxesSurviveGC(t *testing.T) {
	type rec struct {
		Key  string
		Body []byte
	}
	const n = 10000
	var strs Boxes[string]
	var bodies Boxes[[]byte]
	var recs Boxes[rec]
	kept := make([]any, 0, 3*n)
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i * 7919)
		kept = append(kept, strs.Box(s), bodies.Box([]byte(s)), recs.Box(rec{Key: s, Body: []byte("v" + s)}))
	}
	var sink [][]byte
	for i := 0; i < 2000; i++ {
		sink = append(sink, make([]byte, 512))
		if len(sink) > 64 {
			sink = sink[:0]
		}
	}
	runtime.GC()
	runtime.GC()
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i * 7919)
		if got := kept[3*i].(string); got != s {
			t.Fatalf("string %d = %q after GC, want %q", i, got, s)
		}
		if got := kept[3*i+1].([]byte); string(got) != s {
			t.Fatalf("[]byte %d = %q after GC, want %q", i, got, s)
		}
		if got := kept[3*i+2].(rec); got.Key != s || string(got.Body) != "v"+s {
			t.Fatalf("struct %d = %+v after GC", i, got)
		}
	}
	runtime.KeepAlive(sink)
}
