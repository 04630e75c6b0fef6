package metrics_test

// The behaviours these tests pin used to belong to this package's counter
// types (Latency, Throughput, BatchSizes). They now belong to the region's
// obs.Registry families and the views region.Report / BatchStats read from
// them, so the tests drive those.

import (
	"testing"
	"testing/quick"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// newRegion builds a two-slot passthrough region on clk, recording into a
// fresh registry.
func newRegion(t *testing.T, clk clock.Clock) (*region.Region, *obs.Registry) {
	t.Helper()
	var b graph.Builder
	b.AddOperator("src", "n1").AddOperator("out", "n2")
	b.Connect("src", "out")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := region.New(region.Config{
		ID:    "r1",
		Graph: g,
		Registry: operator.Registry{
			"src": func() operator.Operator { return operator.NewPassthrough("src") },
			"out": func() operator.Operator { return operator.NewPassthrough("out") },
		},
		Scheme: ft.BaseScheme,
		Phones: 2,
		Clock:  clk,
		WiFi:   simnet.WiFiConfig{BitsPerSecond: 100e6},
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, reg
}

// sinkFamily is an unstarted region and its sink-latency histogram, which
// the tests observe into directly, as the sink does per published result.
func sinkFamily(t *testing.T) (*region.Region, *obs.Histogram) {
	r, reg := newRegion(t, clock.NewManual())
	return r, reg.Hist(obs.SinkLatency, "")
}

func TestLatencySummaries(t *testing.T) {
	r, h := sinkFamily(t)
	if rep := r.Report(0); rep.MeanLatency != 0 || rep.P95Latency != 0 || h.Max() != 0 {
		t.Fatal("empty family should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(int64(time.Duration(i) * time.Second))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	rep := r.Report(0)
	if rep.MeanLatency != 50500*time.Millisecond {
		t.Fatalf("mean = %v, want 50.5s", rep.MeanLatency)
	}
	// Percentiles are histogram bucket upper bounds: at most 1/16 (6.25%)
	// above the exact rank sample, monotone, never above max.
	checkBound := func(p float64, got, exact time.Duration) {
		t.Helper()
		if got < exact || float64(got) > float64(exact)*(1+1.0/16) {
			t.Fatalf("p%g = %v outside [%v, %v+6.25%%]", p, got, exact, exact)
		}
	}
	checkBound(50, time.Duration(h.Percentile(50)), 50*time.Second)
	checkBound(95, rep.P95Latency, 95*time.Second)
	if got := time.Duration(h.Max()); got != 100*time.Second {
		t.Fatalf("max = %v", got)
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100 = %d, want max %d", h.Percentile(100), h.Max())
	}
	r.OpenWindow()
	if h.Count() != 0 || r.Report(0).MeanLatency != 0 {
		t.Fatal("opening a window did not clear the sink family")
	}
}

// TestLatencyPinnedSampleSets pins the summaries the report reads off the
// sink family on known sample sets: these exact values are the regression
// contract for the fixed-bucket backing store.
func TestLatencyPinnedSampleSets(t *testing.T) {
	// Identical samples: every summary is exact (single bucket, clamp).
	r, a := sinkFamily(t)
	for i := 0; i < 1000; i++ {
		a.Observe(int64(7 * time.Millisecond))
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if got := time.Duration(a.Percentile(p)); got != 7*time.Millisecond {
			t.Fatalf("identical samples p%g = %v, want 7ms", p, got)
		}
	}
	if rep := r.Report(0); rep.MeanLatency != 7*time.Millisecond || rep.P95Latency != 7*time.Millisecond {
		t.Fatalf("mean=%v p95=%v, want 7ms both", rep.MeanLatency, rep.P95Latency)
	}

	// Values below 16ns land in exact unit buckets: percentiles are the
	// true order statistics, bit for bit.
	_, b := sinkFamily(t)
	for ns := int64(1); ns <= 10; ns++ {
		b.Observe(ns)
	}
	if got := b.Percentile(50); got != 5 {
		t.Fatalf("unit-bucket p50 = %d, want 5ns", got)
	}
	if got := b.Percentile(90); got != 9 {
		t.Fatalf("unit-bucket p90 = %d, want 9ns", got)
	}

	// 1s..100s in 1s steps: pinned bucket upper bounds. 50s falls in the
	// bucket [48s, 51.539607s) whose upper edge is 51539607551ns; 95s in
	// [92.5s, 98.784248s) → 98784247807ns. These literals change only if
	// the bucket layout changes — which is exactly what they guard.
	r, c := sinkFamily(t)
	for i := 1; i <= 100; i++ {
		c.Observe(int64(time.Duration(i) * time.Second))
	}
	if got := c.Percentile(50); got != 51539607551 {
		t.Fatalf("pinned p50 = %d, want 51539607551", got)
	}
	rep := r.Report(0)
	if rep.P95Latency != time.Duration(98784247807) {
		t.Fatalf("pinned p95 = %d, want 98784247807", rep.P95Latency)
	}
	if rep.MeanLatency != 50500*time.Millisecond {
		t.Fatalf("pinned mean = %v, want 50.5s", rep.MeanLatency)
	}
	if got := time.Duration(c.Max()); got != 100*time.Second {
		t.Fatalf("pinned max = %v, want 100s", got)
	}
}

// TestThroughputWindow drives a running region: Report counts the results
// published since OpenWindow and rates them over the window.
func TestThroughputWindow(t *testing.T) {
	r, reg := newRegion(t, clock.NewScaled(1000))
	r.Start()
	defer r.Stop()
	deliver := func(n int) {
		t.Helper()
		want := r.Outputs() + uint64(n)
		for i := 0; i < n; i++ {
			r.Ingest("src", i, 64, "reading")
		}
		for deadline := time.Now().Add(10 * time.Second); r.Outputs() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", r.Outputs(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	deliver(5) // before the window: not counted
	start := r.OpenWindow()
	deliver(20)
	rep := r.Report(start + 10*time.Second)
	if rep.Tuples != 20 || rep.Window != 10*time.Second || rep.ThroughputTPS != 2.0 {
		t.Fatalf("report = %d tuples over %v at %v t/s, want 20 over 10s at 2.0", rep.Tuples, rep.Window, rep.ThroughputTPS)
	}
	if got := reg.Hist(obs.SinkLatency, "").Count(); got != 20 {
		t.Fatalf("sink family count = %d, want 20", got)
	}
	if got := r.Report(start).ThroughputTPS; got != 0 {
		t.Fatalf("zero window rate = %v, want 0", got)
	}
	r.OpenWindow()
	if got := r.Report(start + time.Hour).Tuples; got != 0 {
		t.Fatalf("reopened window counts %d, want 0", got)
	}
}

// Property: the percentiles read off the sink family are monotone in p and
// bounded by its max, window after window.
func TestPercentileMonotoneProperty(t *testing.T) {
	r, h := sinkFamily(t)
	f := func(samples []uint16) bool {
		r.OpenWindow()
		if len(samples) == 0 {
			return h.Count() == 0
		}
		for _, s := range samples {
			h.Observe(int64(time.Duration(s) * time.Millisecond))
		}
		last := int64(0)
		for _, p := range []float64{1, 25, 50, 75, 95, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return last == h.Max() && int64(r.Report(0).P95Latency) <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBatchSizes(t *testing.T) {
	r, reg := newRegion(t, clock.NewManual())
	b := r.BatchStats()
	if b.Mean() != 0 || b.Flushes() != 0 {
		t.Fatal("empty family not empty")
	}
	h := reg.Hist(obs.BatchMsgs, "")
	h.Observe(4)
	h.Observe(8)
	h.Observe(12)
	if b.Flushes() != 3 || h.Sum() != 24 {
		t.Fatalf("flushes=%d msgs=%d, want 3/24", b.Flushes(), h.Sum())
	}
	if b.Mean() != 8 {
		t.Fatalf("mean = %v, want 8", b.Mean())
	}
	if h.Max() != 12 {
		t.Fatalf("max = %d, want 12", h.Max())
	}
	if rep := r.Report(0); rep.BatchFlushes != 3 || rep.MeanBatch != 8 {
		t.Fatalf("report = %d flushes / %v mean, want 3/8", rep.BatchFlushes, rep.MeanBatch)
	}
	r.OpenWindow()
	if b.Flushes() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("opening a window did not clear the batch family")
	}
}
