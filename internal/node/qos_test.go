package node

import (
	"testing"
	"time"

	"mobistreams/internal/graph"
)

// TestQoSZeroBatchesWithFixedDeadline pins the zero value: default size
// bounds, the fixed flush interval, and no deadline adaptation.
func TestQoSZeroBatchesWithFixedDeadline(t *testing.T) {
	b := newBatcher(nil, QoS{})
	if b.maxMsgs != 32 || b.maxBytes != 64<<10 {
		t.Fatalf("zero QoS bounds = %d msgs / %d bytes", b.maxMsgs, b.maxBytes)
	}
	b.noteSizeFlush()
	b.noteLatencyFlush(0)
	if got := b.flushInterval(); got != fixedFlushInterval {
		t.Fatalf("flushInterval = %v with QoS off, want the fixed %v", got, fixedFlushInterval)
	}
}

func TestAdaptiveDeadlineTracksFlushCauses(t *testing.T) {
	b := newBatcher(nil, QoS{MaxBatchMsgs: 32})
	b.setBudget(100*time.Millisecond, time.Millisecond)
	if got := b.flushInterval(); got != 100*time.Millisecond {
		t.Fatalf("initial deadline = %v, want the full budget share", got)
	}
	// Latency-triggered flushes carrying nearly-empty batches shrink the
	// deadline toward the floor.
	for i := 0; i < 100; i++ {
		b.noteLatencyFlush(1)
	}
	if got := b.flushInterval(); got != time.Millisecond {
		t.Fatalf("deadline after sustained empty flushes = %v, want the 1ms floor", got)
	}
	// A latency flush carrying at least half a batch is evidence the
	// deadline is about right: no movement.
	cur := b.flushInterval()
	b.noteLatencyFlush(16)
	if got := b.flushInterval(); got != cur {
		t.Fatalf("half-full latency flush moved deadline %v -> %v", cur, got)
	}
	// Size-triggered flushes grow it back toward the cap, never past it.
	for i := 0; i < 100; i++ {
		b.noteSizeFlush()
	}
	if got := b.flushInterval(); got != 100*time.Millisecond {
		t.Fatalf("deadline after sustained size flushes = %v, want the budget cap", got)
	}
}

func TestSlotHopsLongestPathToSink(t *testing.T) {
	var gb graph.Builder
	gb.AddOperator("A", "s1").AddOperator("B", "s2").AddOperator("C", "s3").AddOperator("D", "s4")
	gb.Connect("A", "B").Connect("B", "C").Connect("C", "D").Connect("A", "D")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for slot, want := range map[string]int{"s1": 3, "s2": 2, "s3": 1, "s4": 0} {
		if got := slotHops(g, slot); got != want {
			t.Fatalf("slotHops(%s) = %d, want %d", slot, got, want)
		}
	}
}
