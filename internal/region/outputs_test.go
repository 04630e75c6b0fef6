package region

import (
	"math/rand"
	"testing"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// sinkOnlyRegion builds an unstarted region whose sink hook the tests drive
// directly, with publish counting what got past the filter.
func sinkOnlyRegion(t *testing.T, publish func(*tuple.Tuple)) *Region {
	t.Helper()
	var b graph.Builder
	b.AddOperator("src", "n1").AddOperator("out", "n2")
	b.Connect("src", "out")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		ID:    "r1",
		Graph: g,
		Registry: operator.Registry{
			"src": func() operator.Operator { return operator.NewPassthrough("src") },
			"out": func() operator.Operator { return operator.NewPassthrough("out") },
		},
		Scheme:       ft.BaseScheme,
		Phones:       2,
		Clock:        clock.NewManual(),
		WiFi:         simnet.WiFiConfig{BitsPerSecond: 100e6},
		OnSinkOutput: func(_ simnet.NodeID, t *tuple.Tuple) { publish(t) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Outputs and DuplicateOutputs are exact, and exactly the first copy of
// every (source, seq) is published, whatever order the sink sees them in:
// dense runs, reordering across page boundaries, and whole replays, on two
// interleaved sources.
func TestOutputsExactUnderReorderAndReplay(t *testing.T) {
	published := 0
	r := sinkOnlyRegion(t, func(*tuple.Tuple) { published++ })
	type key struct {
		src string
		seq uint64
	}
	model := map[key]bool{}
	var dups int64
	offer := func(src string, seq uint64) {
		r.onSink("p", &tuple.Tuple{Source: src, Seq: seq})
		if k := (key{src, seq}); model[k] {
			dups++
		} else {
			model[k] = true
		}
	}
	check := func(phase string) {
		t.Helper()
		if got := r.Outputs(); got != uint64(len(model)) {
			t.Fatalf("%s: Outputs() = %d, want %d", phase, got, len(model))
		}
		if got := r.DuplicateOutputs(); got != dups {
			t.Fatalf("%s: DuplicateOutputs() = %d, want %d", phase, got, dups)
		}
		if published != len(model) {
			t.Fatalf("%s: published %d, want %d", phase, published, len(model))
		}
	}

	const n = 10000 // spans three dedup pages
	for seq := uint64(1); seq <= n; seq++ {
		offer("a", seq)
		if seq%3 == 0 {
			offer("b", seq/3)
		}
	}
	check("dense")

	rng := rand.New(rand.NewSource(15))
	perm := rng.Perm(n)
	for _, i := range perm {
		offer("a", n+1+uint64(i))
	}
	check("reordered")

	for seq := uint64(n / 2); seq <= 2*n; seq++ { // recovery replays from a checkpoint
		offer("a", seq)
		offer("b", seq)
	}
	check("replayed")
}

// The sink filter's memory does not grow with the number of results a dense
// stream has published (it used to keep a map entry per result).
func TestSinkDedupBoundedOnDenseOutput(t *testing.T) {
	r := sinkOnlyRegion(t, func(*tuple.Tuple) {})
	const n = 2_000_000
	tup := &tuple.Tuple{Source: "src"}
	for seq := uint64(1); seq <= n; seq++ {
		tup.Seq = seq
		r.onSink("p", tup)
	}
	if got := r.Outputs(); got != n {
		t.Fatalf("Outputs() = %d, want %d", got, n)
	}
	if pages := r.seenOutput["src"].Pages(); pages > 1 {
		t.Fatalf("%d dedup pages resident after %d dense outputs, want at most 1", pages, n)
	}
	tup.Seq = n / 2
	r.onSink("p", tup)
	if got := r.DuplicateOutputs(); got != 1 {
		t.Fatalf("replayed result not suppressed: %d duplicates", got)
	}
}
