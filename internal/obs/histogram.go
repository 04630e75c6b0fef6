// Package obs is the observability layer: always-on fixed-bucket latency
// histograms, sampled causal tuple tracing, and a structured lifecycle
// event journal. It is imported by the data plane (node, region, wire,
// transport), so it depends on the standard library only — no mobistreams
// packages — and every hot-path primitive is lock-free and allocation-free.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: log-linear over non-negative int64 values
// (nanoseconds, queue depths, byte counts — the unit is the caller's).
// Values below 16 get exact unit buckets; above that, each power-of-two
// range is split into 16 linear sub-buckets, bounding the relative
// quantile error at 1/16 (6.25%). Counts, sum, and max are plain atomics,
// so concurrent Observe calls never take a lock and never allocate.
const (
	subBits    = 4
	subCount   = 1 << subBits              // 16 linear sub-buckets per octave
	numBuckets = subCount * (64 - subBits) // exp 4..62 plus the linear range
)

// Histogram is a fixed-size concurrent histogram. The zero value is ready
// to use. All methods are safe for concurrent use; Observe is wait-free
// apart from the max CAS (which retries only while the max is climbing).
type Histogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    uint64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket. Exported math,
// private helper: v<16 → identity; else 16 linear buckets per octave.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // 4..62
	sub := int((uint64(v) >> uint(exp-subBits)) & (subCount - 1))
	return subCount*(exp-subBits+1) + sub
}

// bucketUpper returns the largest value a bucket can hold (inclusive).
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := idx/subCount + subBits - 1
	sub := idx % subCount
	return int64(subCount+sub+1)<<uint(exp-subBits) - 1
}

// Observe records one sample. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records v as n samples: a sampled observation that stands for
// the n-1 unobserved ones beside it. Bucket and count grow by n, sum by
// n·v; max is that of one sample. Negative values clamp to zero.
func (h *Histogram) ObserveN(v int64, n uint64) {
	if v < 0 {
		v = 0
	}
	atomic.AddUint64(&h.counts[bucketIndex(v)], n)
	atomic.AddUint64(&h.count, n)
	atomic.AddUint64(&h.sum, n*uint64(v))
	for {
		cur := atomic.LoadInt64(&h.max)
		if v <= cur || atomic.CompareAndSwapInt64(&h.max, cur, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return atomic.LoadUint64(&h.count) }

// Sum returns the exact running sum of all samples.
func (h *Histogram) Sum() uint64 { return atomic.LoadUint64(&h.sum) }

// Max returns the exact largest sample seen (0 when empty).
func (h *Histogram) Max() int64 { return atomic.LoadInt64(&h.max) }

// Mean returns the exact mean (sum/count), 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Percentile returns an upper bound for the p-th percentile (0 < p ≤ 100):
// the inclusive upper edge of the bucket holding the rank-⌈p/100·n⌉ sample,
// clamped to the exact recorded max. The bound is at most 6.25% above the
// true value; it is monotone in p and Percentile(100) == Max().
func (h *Histogram) Percentile(p float64) int64 {
	n := h.Count()
	if n == 0 || p <= 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < numBuckets; i++ {
		seen += atomic.LoadUint64(&h.counts[i])
		if seen >= rank {
			upper := bucketUpper(i)
			if m := h.Max(); upper > m {
				upper = m
			}
			return upper
		}
	}
	return h.Max()
}

// Merge adds o's samples into h. Merging per-shard histograms is exactly
// equivalent to observing every sample into a single histogram: bucket
// assignment depends only on the value, and count/sum are plain sums.
// The merged max is the max of the two. o may be observed concurrently;
// the merge is then a consistent-enough snapshot, not a linearizable one.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	for i := 0; i < numBuckets; i++ {
		if c := atomic.LoadUint64(&o.counts[i]); c != 0 {
			atomic.AddUint64(&h.counts[i], c)
		}
	}
	atomic.AddUint64(&h.count, atomic.LoadUint64(&o.count))
	atomic.AddUint64(&h.sum, atomic.LoadUint64(&o.sum))
	om := o.Max()
	for {
		cur := atomic.LoadInt64(&h.max)
		if om <= cur || atomic.CompareAndSwapInt64(&h.max, cur, om) {
			return
		}
	}
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// observers; intended for quiesced collectors.
func (h *Histogram) Reset() {
	for i := 0; i < numBuckets; i++ {
		atomic.StoreUint64(&h.counts[i], 0)
	}
	atomic.StoreUint64(&h.count, 0)
	atomic.StoreUint64(&h.sum, 0)
	atomic.StoreInt64(&h.max, 0)
}
