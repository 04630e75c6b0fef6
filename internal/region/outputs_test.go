package region

import (
	"math/rand"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
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

// Report is a view of one measurement window. Its tuple count is the dedup
// sets' growth since OpenWindow, which is also the sink family's count (one
// observation per published result, none per duplicate); its latency and
// checkpoint numbers are exact over what was observed inside the window.
func TestReportViewsWindow(t *testing.T) {
	r := sinkOnlyRegion(t, func(*tuple.Tuple) {})
	clk := r.clk.(*clock.Manual)
	// Result seq of a source is created seq µs before it reaches the sink.
	var latSum time.Duration
	offer := func(src string, lo, hi uint64) {
		for seq := lo; seq <= hi; seq++ {
			before := r.Outputs()
			r.onSink("p", &tuple.Tuple{Source: src, Seq: seq, Created: clk.Now() - time.Duration(seq)*time.Microsecond})
			if r.Outputs() > before {
				latSum += time.Duration(seq) * time.Microsecond
			}
		}
	}
	reg := r.Obs()
	reg.Hist(obs.CkptPause, "n1").Observe(int64(time.Hour)) // before the window

	offer("a", 1, 300)
	offer("b", 1, 100)
	clk.Advance(10 * time.Second)
	latSum = 0
	start := r.OpenWindow()
	base, dupBase := r.Outputs(), r.DuplicateOutputs()
	offer("a", 200, 600) // replays 200..300, then 300 fresh
	offer("b", 50, 250)  // replays 50..100, then 150 fresh
	offer("a", 1, 600)   // a whole replay: nothing fresh
	observed := []time.Duration{7*time.Millisecond + 1, 9 * time.Millisecond, 11*time.Millisecond + 2}
	var pauseSum, pauseMax time.Duration
	for i, p := range observed {
		slot := []string{"n1", "n2"}[i%2]
		reg.Hist(obs.CkptPause, slot).Observe(int64(p))
		reg.Hist(obs.CkptDeltaBlob, slot).Observe(100)
		reg.Hist(obs.CkptState, slot).Observe(400)
		pauseSum += p
		pauseMax = max(pauseMax, p)
	}
	clk.Advance(5 * time.Second)
	rep := r.Report(clk.Now())

	fresh := r.Outputs() - base
	if fresh != 450 || rep.Tuples != int64(fresh) || r.SinkLatency().Count() != fresh {
		t.Fatalf("fresh %d, Report.Tuples %d, sink family count %d: want 450 each",
			fresh, rep.Tuples, r.SinkLatency().Count())
	}
	if dups := r.DuplicateOutputs() - dupBase; dups != 101+51+600 {
		t.Fatalf("duplicates in window = %d, want %d", dups, 101+51+600)
	}
	if rep.Window != clk.Now()-start || rep.ThroughputTPS != 450.0/5 {
		t.Fatalf("window %v at %.1f t/s, want 5s at 90 t/s", rep.Window, rep.ThroughputTPS)
	}
	if want := latSum / 450; rep.MeanLatency != want || rep.P95Latency > 600*time.Microsecond {
		t.Fatalf("latency mean %v p95 %v, want mean %v and p95 <= 600µs", rep.MeanLatency, rep.P95Latency, want)
	}
	ck := r.CkptStats()
	if want := pauseSum / 3; ck.PauseMean() != want || rep.CkptPauseMean != want {
		t.Fatalf("pause mean %v / report %v, want exactly %v", ck.PauseMean(), rep.CkptPauseMean, want)
	}
	if ck.PauseMax() != pauseMax || rep.CkptPauseMax != pauseMax || ck.Count() != 3 {
		t.Fatalf("pause max %v over %d checkpoints, want %v over 3", ck.PauseMax(), ck.Count(), pauseMax)
	}
	if ck.DeltaRatio() != 0.25 || ck.DeltaBlobs() != 3 || ck.FullBlobs() != 0 {
		t.Fatalf("delta ratio %v, %d delta / %d full blobs", ck.DeltaRatio(), ck.DeltaBlobs(), ck.FullBlobs())
	}
}
