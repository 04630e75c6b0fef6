package node

import (
	"testing"
	"testing/quick"

	"mobistreams/internal/graph"
	"mobistreams/internal/tuple"
)

// mustOp and mustSlot resolve a graph name a test relies on.
func mustOp(g *graph.Graph, name string) graph.OpID {
	id, ok := g.OpID(name)
	if !ok {
		panic("no operator " + name)
	}
	return id
}

func mustSlot(g *graph.Graph, name string) graph.SlotID {
	id, ok := g.SlotID(name)
	if !ok {
		panic("no slot " + name)
	}
	return id
}

func item(seq uint64) *queued {
	return &queued{edgeSeq: seq, item: tuple.DataItem(&tuple.Tuple{Seq: seq, Size: 1})}
}

func drain(q *upQueue) []uint64 {
	var seqs []uint64
	var it queued
	for q.len() > 0 {
		q.pop(&it)
		seqs = append(seqs, it.edgeSeq)
	}
	return seqs
}

func TestUnorderedQueueWindowDedup(t *testing.T) {
	q := newStreamQueue(false)
	for _, seq := range []uint64{1, 2, 2, 1, 3, 5, 4} {
		q.enqueue(item(seq))
	}
	// Dedup-window mode: repeats of recently seen sequences (2, 1) drop,
	// but a genuine out-of-order arrival (4 after 5) is legitimate input
	// and must be delivered, not mistaken for a duplicate.
	got := drain(q)
	want := []uint64{1, 2, 3, 5, 4}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

// Regression for out-of-order arrivals on unordered queues being dropped
// as duplicates: any sequence below the high watermark used to be thrown
// away, losing legitimate tuples that merely overtook each other on the
// network.
func TestUnorderedQueueOutOfOrderNotDropped(t *testing.T) {
	q := newStreamQueue(false)
	q.enqueue(item(10))
	q.enqueue(item(3)) // below watermark but never seen: keep
	q.enqueue(item(3)) // true duplicate inside the window: drop
	got := drain(q)
	want := []uint64{10, 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if q.lastEnq != 10 {
		t.Fatalf("watermark = %d, want 10", q.lastEnq)
	}
}

// The dedup window is bounded by sequence, not by count: it covers the
// dedupWindow sequences ending at the highest one accepted.
func TestUnorderedQueueDedupWindowBounded(t *testing.T) {
	q := newStreamQueue(false)
	const top = dedupWindow + 10
	for seq := uint64(1); seq <= top; seq++ {
		q.enqueue(item(seq))
	}
	// Sequence top-dedupWindow has just fallen below the window: a very
	// late duplicate of it slips through here and is caught by sink-side
	// dedup instead. It is not recorded either, so it slips through again.
	for i := 0; i < 2; i++ {
		if !q.enqueue(item(top - dedupWindow)) {
			t.Fatal("sequence below the window wrongly treated as duplicate")
		}
	}
	// Both ends of the window stay suppressed.
	if q.enqueue(item(top)) || q.enqueue(item(top-dedupWindow+1)) {
		t.Fatal("in-window duplicate delivered")
	}
	// A jump of more than a window forgets everything below it.
	q.enqueue(item(top + 5*dedupWindow))
	if !q.enqueue(item(top)) {
		t.Fatal("sequence left behind by a jump wrongly treated as duplicate")
	}
	if q.lastEnq != top+5*dedupWindow {
		t.Fatalf("watermark = %d, want %d", q.lastEnq, top+5*dedupWindow)
	}
}

// The unordered enqueue path owns no heap state: once the item slice has
// grown, accepting a sequence and dropping a duplicate allocate nothing,
// straight after construction and straight after a reset.
func TestUpQueueEnqueueZeroAllocs(t *testing.T) {
	q := newStreamQueue(false)
	seq := uint64(0)
	var popped queued
	step := func() {
		seq++
		if !q.enqueue(&queued{edgeSeq: seq}) || q.enqueue(&queued{edgeSeq: seq}) {
			t.Fatalf("seq %d: fresh/duplicate verdicts wrong", seq)
		}
		q.pop(&popped)
	}
	for _, phase := range []string{"fresh", "reset"} {
		step() // grow q.items once
		if a := testing.AllocsPerRun(5000, step); a != 0 {
			t.Fatalf("%s queue: %.2f allocs per enqueue, want 0", phase, a)
		}
		q.reset()
	}
}

func TestOrderedQueueParksAndDrains(t *testing.T) {
	q := newStreamQueue(true)
	// Fresh data overtakes a recovery resend: 4 and 5 park until 1..3
	// arrive, then everything delivers in sequence order.
	q.enqueue(item(4))
	q.enqueue(item(5))
	if q.len() != 0 {
		t.Fatalf("out-of-order items delivered early: %d", q.len())
	}
	q.enqueue(item(1))
	q.enqueue(item(2))
	q.enqueue(item(3))
	got := drain(q)
	for i, seq := range []uint64{1, 2, 3, 4, 5} {
		if got[i] != seq {
			t.Fatalf("order = %v", got)
		}
	}
	if len(q.park) != 0 {
		t.Fatalf("park not drained: %d", len(q.park))
	}
}

func TestOrderedQueueDuplicateDrop(t *testing.T) {
	q := newStreamQueue(true)
	q.enqueue(item(1))
	q.enqueue(item(1))
	q.enqueue(item(2))
	q.enqueue(item(2))
	if got := drain(q); len(got) != 2 {
		t.Fatalf("delivered %v, want [1 2]", got)
	}
}

func TestOrderedQueueFlushValve(t *testing.T) {
	q := newStreamQueue(true)
	// An unfillable gap (seq 1 never arrives) must not deadlock: past
	// the park limit, parked items flush in order.
	for seq := uint64(2); seq <= uint64(parkLimit+3); seq++ {
		q.enqueue(item(seq))
	}
	got := drain(q)
	if len(got) == 0 {
		t.Fatal("valve never flushed")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("flush out of order at %d: %v...", i, got[:i+1])
		}
	}
	if q.lastEnq < uint64(parkLimit) {
		t.Fatalf("watermark did not advance: %d", q.lastEnq)
	}
}

func TestQueuePopCompaction(t *testing.T) {
	q := newStreamQueue(false)
	for seq := uint64(1); seq <= 1000; seq++ {
		q.enqueue(item(seq))
	}
	var it queued
	for i := 0; i < 600; i++ {
		q.pop(&it)
	}
	if q.len() != 400 {
		t.Fatalf("len = %d, want 400", q.len())
	}
	// Compaction must have reclaimed the consumed prefix.
	if q.head > 512 {
		t.Fatalf("head = %d, compaction never ran", q.head)
	}
	if q.pop(&it); it.edgeSeq != 601 {
		t.Fatalf("next = %d, want 601", it.edgeSeq)
	}
}

func TestCommandAndReportNames(t *testing.T) {
	if CmdToken.String() != "token" || CmdFetchRestore.String() != "fetch-restore" {
		t.Fatal("command names wrong")
	}
	if RepCheckpointed.String() != "checkpointed" || repHandoffDone.String() != "handoff-done" {
		t.Fatal("report names wrong")
	}
	if CommandOp(99).String() != "cmd(?)" || reportType(99).String() != "report(?)" {
		t.Fatal("unknown names wrong")
	}
}

// Property: an ordered queue delivers exactly the set {1..n} in order for
// any arrival permutation (no gaps, duplicates injected freely).
func TestOrderedQueuePermutationProperty(t *testing.T) {
	f := func(permSeed uint32, n uint8, dupEvery uint8) bool {
		k := int(n%64) + 1
		q := newStreamQueue(true)
		perm := make([]uint64, k)
		for i := range perm {
			perm[i] = uint64(i + 1)
		}
		s := permSeed
		for i := k - 1; i > 0; i-- {
			s = s*1664525 + 1013904223
			j := int(s % uint32(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, seq := range perm {
			q.enqueue(item(seq))
			// Widen before adding one: dupEvery=255 would overflow
			// uint8 to 0 and panic on i%0.
			if dupEvery > 0 && i%(int(dupEvery)+1) == 0 {
				q.enqueue(item(seq)) // duplicate injection
			}
		}
		got := drain(q)
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i] != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the flushPark overflow valve delivers parked items in strictly
// increasing sequence order and jumps the watermark past everything it
// flushed, for any shuffled arrival order and any unfillable gap pattern —
// including a second failure opening a second gap after the first flush.
func TestOrderedQueueFlushValveProperty(t *testing.T) {
	f := func(permSeed uint32, gapSeed uint32) bool {
		q := newStreamQueue(true)
		// Two bursts, each with gaps that never fill (lost edge logs).
		// Burst sequences start at 2 so sequence 1 is a permanent gap.
		total := parkLimit + 64
		seqs := make([]uint64, 0, 2*total)
		skip := func(s, seed uint64) bool { return (s*2654435761+seed)%17 == 0 }
		for s := uint64(2); len(seqs) < total; s++ {
			if !skip(s, uint64(gapSeed)) {
				seqs = append(seqs, s)
			}
		}
		// Second failure: another unfillable gap far past the first.
		base := seqs[len(seqs)-1] + 100
		for s := base; len(seqs) < 2*total; s++ {
			if !skip(s, uint64(gapSeed)+1) {
				seqs = append(seqs, s)
			}
		}
		// Shuffle within each burst (bursts arrive in order).
		r := permSeed
		shuffle := func(part []uint64) {
			for i := len(part) - 1; i > 0; i-- {
				r = r*1664525 + 1013904223
				j := int(r % uint32(i+1))
				part[i], part[j] = part[j], part[i]
			}
		}
		shuffle(seqs[:total])
		shuffle(seqs[total:])
		for _, s := range seqs {
			q.enqueue(item(s))
		}
		q.flushPark() // drain any sub-limit remainder for inspection
		got := drain(q)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Logf("out of order at %d: %d after %d", i, got[i], got[i-1])
				return false
			}
		}
		// The valve degrades to bounded loss, never deadlock: everything
		// parked at overflow time (at least parkLimit items) delivers,
		// and arrivals after the watermark jump keep flowing. Stragglers
		// below a jumped watermark are the designed loss.
		if len(got) < parkLimit {
			t.Logf("delivered only %d of %d", len(got), len(seqs))
			return false
		}
		sent := make(map[uint64]bool, len(seqs))
		for _, s := range seqs {
			sent[s] = true
		}
		for _, s := range got {
			if !sent[s] {
				t.Logf("delivered %d was never sent", s)
				return false
			}
		}
		// The watermark jumped past the highest delivered sequence.
		if q.lastEnq != got[len(got)-1] {
			t.Logf("watermark %d, want %d", q.lastEnq, got[len(got)-1])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
