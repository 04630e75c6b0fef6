package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBucketIndexContinuity(t *testing.T) {
	// The linear range hands off to the log-linear range without gaps:
	// indices are non-decreasing in v and every index round-trips to an
	// upper bound >= v.
	last := -1
	for v := int64(0); v < 4096; v++ {
		idx := bucketIndex(v)
		if idx < last {
			t.Fatalf("bucket index regressed at v=%d: %d < %d", v, idx, last)
		}
		last = idx
		if up := bucketUpper(idx); up < v {
			t.Fatalf("bucketUpper(%d)=%d < v=%d", idx, up, v)
		}
	}
	if got := bucketIndex(math.MaxInt64); got >= numBuckets {
		t.Fatalf("max value index %d out of range %d", got, numBuckets)
	}
}

func TestHistogramExactStats(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(95) != 0 || h.Max() != 0 {
		t.Fatal("zero-value histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count=%d sum=%d, want 100/5050", h.Count(), h.Sum())
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean=%v, want 50.5", h.Mean())
	}
	if h.Max() != 100 {
		t.Fatalf("max=%d, want 100", h.Max())
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramPercentileErrorBound(t *testing.T) {
	// Percentile returns an upper bound within 1/16 (6.25%) of the true
	// value, is monotone in p, and P(100) == Max exactly.
	var h Histogram
	for i := int64(1); i <= 10000; i++ {
		h.Observe(i * 1000) // 1µs .. 10ms in ns
	}
	last := int64(0)
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 100} {
		got := h.Percentile(p)
		exact := int64(math.Ceil(p/100*10000)) * 1000
		if got < exact {
			t.Fatalf("p%g=%d below exact %d (not an upper bound)", p, got, exact)
		}
		if float64(got) > float64(exact)*(1+1.0/subCount) {
			t.Fatalf("p%g=%d exceeds %g error bound of exact %d", p, got, 1.0/subCount, exact)
		}
		if got < last {
			t.Fatalf("percentile not monotone: p%g=%d < %d", p, got, last)
		}
		last = got
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100=%d != max=%d", h.Percentile(100), h.Max())
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines, half of them with weighted observations, while a reader
// merges it into a scratch copy — run under -race this proves
// Observe/ObserveN/Merge/Percentile need no locks.
func TestHistogramConcurrentWriters(t *testing.T) {
	const writers = 8
	const perWriter = 20000
	var h Histogram
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // merged reads racing the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var scratch Histogram
			scratch.Merge(&h)
			_ = scratch.Percentile(99)
			_ = h.Mean()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if w%2 == 0 {
					h.Observe(int64(w*perWriter + i))
				} else {
					h.ObserveN(int64(w*perWriter+i), 8)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if want := uint64(writers / 2 * perWriter * (1 + 8)); h.Count() != want {
		t.Fatalf("count=%d, want %d", h.Count(), want)
	}
	if h.Max() != writers*perWriter-1 {
		t.Fatalf("max=%d, want %d", h.Max(), writers*perWriter-1)
	}
}

// TestHistogramShardMergeProperty: merging per-shard histograms is
// exactly equivalent to observing every sample into a single histogram.
func TestHistogramShardMergeProperty(t *testing.T) {
	f := func(samples []uint32, shardCount uint8) bool {
		n := int(shardCount%7) + 2
		shards := make([]*Histogram, n)
		for i := range shards {
			shards[i] = &Histogram{}
		}
		var single Histogram
		for i, s := range samples {
			v := int64(s)
			single.Observe(v)
			shards[i%n].Observe(v)
		}
		var merged Histogram
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if merged.Count() != single.Count() || merged.Sum() != single.Sum() || merged.Max() != single.Max() {
			return false
		}
		for _, p := range []float64{25, 50, 90, 99, 100} {
			if merged.Percentile(p) != single.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(3)
	h.Observe(100)
	snap := h.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot buckets = %d, want 2", len(snap))
	}
	if snap[0].Upper != 3 || snap[0].Count != 2 {
		t.Fatalf("first bucket = %+v", snap[0])
	}
	if snap[1].Upper < 100 || snap[1].Count != 1 {
		t.Fatalf("second bucket = %+v", snap[1])
	}
}

// A weighted observation is indistinguishable from observing the value
// that many times: count, sum, max and every percentile agree, and so do
// histograms that mix weights.
func TestHistogramWeightedEqualsRepeated(t *testing.T) {
	var weighted, repeated Histogram
	for i, v := range []int64{-3, 0, 7, 15, 16, 1000, 123456, 9_876_543} {
		n := uint64(1 + i%8)
		weighted.ObserveN(v, n)
		for j := uint64(0); j < n; j++ {
			repeated.Observe(v)
		}
	}
	if weighted.Count() != repeated.Count() || weighted.Sum() != repeated.Sum() || weighted.Max() != repeated.Max() {
		t.Fatalf("weighted count/sum/max = %d/%d/%d, repeated %d/%d/%d",
			weighted.Count(), weighted.Sum(), weighted.Max(), repeated.Count(), repeated.Sum(), repeated.Max())
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		if w, r := weighted.Percentile(p), repeated.Percentile(p); w != r {
			t.Fatalf("p%v: weighted %d, repeated %d", p, w, r)
		}
	}
	if w, r := weighted.Snapshot(), repeated.Snapshot(); len(w) != len(r) {
		t.Fatalf("weighted buckets %v, repeated %v", w, r)
	} else {
		for i := range w {
			if w[i] != r[i] {
				t.Fatalf("bucket %d: weighted %v, repeated %v", i, w[i], r[i])
			}
		}
	}
}

// plainHistogram is Histogram with plain stores: correct for one goroutine
// only, since exporters read a live histogram while its writer observes.
// It is here to price Observe's atomics, not to be used.
type plainHistogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    uint64
	max    int64
}

func (h *plainHistogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
}

// BenchmarkHistogramObserve times Observe against a plain single-goroutine
// copy of it: the gap is what the atomics cost.
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("atomic", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
	b.Run("plain", func(b *testing.B) {
		var h plainHistogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.observe(int64(i))
		}
	})
}

// Snapshot returns the non-empty buckets as (upper-bound, count) pairs in
// ascending order, for export. Allocates; not for the hot path.
func (h *Histogram) Snapshot() []bucket {
	var out []bucket
	for i := 0; i < numBuckets; i++ {
		if c := atomic.LoadUint64(&h.counts[i]); c != 0 {
			out = append(out, bucket{Upper: bucketUpper(i), Count: c})
		}
	}
	return out
}

// bucket is one non-empty histogram bucket in a Snapshot.
type bucket struct {
	Upper int64
	Count uint64
}
