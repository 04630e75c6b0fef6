package node

import "testing"

// BenchmarkUpQueueEnqueueUnordered measures the unordered (dedup-window)
// enqueue path. The window is a bit ring held by value, so the steady state
// must not allocate per enqueue.
func BenchmarkUpQueueEnqueueUnordered(b *testing.B) {
	q := newStreamQueue(false)
	var popped queued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.enqueue(&queued{edgeSeq: uint64(i + 1)}) {
			b.Fatal("fresh sequence rejected")
		}
		q.pop(&popped)
	}
}

// BenchmarkUpQueueEnqueueUnorderedDup measures duplicate suppression inside
// the dedup window: every second enqueue is a repeat of the previous
// sequence and must be dropped.
func BenchmarkUpQueueEnqueueUnorderedDup(b *testing.B) {
	q := newStreamQueue(false)
	var popped queued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i/2 + 1)
		accepted := q.enqueue(&queued{edgeSeq: seq})
		if accepted != (i%2 == 0) {
			b.Fatalf("enqueue %d (seq %d) accepted=%v", i, seq, accepted)
		}
		if accepted {
			q.pop(&popped)
		}
	}
}

// BenchmarkUpQueueEnqueueOrdered measures the in-order (edge-preserving)
// enqueue path: watermark advance plus FIFO push, no park traffic.
func BenchmarkUpQueueEnqueueOrdered(b *testing.B) {
	q := newStreamQueue(true)
	var popped queued
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.enqueue(&queued{edgeSeq: uint64(i + 1)}) {
			b.Fatal("in-order sequence rejected")
		}
		q.pop(&popped)
	}
}

// BenchmarkUpQueueEnqueueOrderedGap measures the park/heal path: arrivals
// alternate one ahead of the watermark, so every odd enqueue parks and the
// following one heals the gap, popping both.
func BenchmarkUpQueueEnqueueOrderedGap(b *testing.B) {
	q := newStreamQueue(true)
	var popped queued
	b.ReportAllocs()
	b.ResetTimer()
	next := uint64(1)
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			q.enqueue(&queued{edgeSeq: next + 1}) // parks above the gap
			continue
		}
		if !q.enqueue(&queued{edgeSeq: next}) { // heals it, releasing both
			b.Fatal("gap fill rejected")
		}
		q.pop(&popped)
		q.pop(&popped)
		next += 2
	}
}
