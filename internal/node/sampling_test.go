package node

import (
	"sync/atomic"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// countingClock is a manual clock that counts how often the node reads it.
type countingClock struct {
	*clock.Manual
	reads atomic.Int64
}

func (c *countingClock) Now() time.Duration {
	c.reads.Add(1)
	return c.Manual.Now()
}

// startedObsNode starts a node hosting slot of g on a manual clock with
// histograms on; newOp builds each of the slot's operators from the clock.
// Every published tuple is announced on outs.
func startedObsNode(t *testing.T, g *graph.Graph, slot string, newOp func(id string, clk *countingClock) operator.Operator) (n *Node, clk *countingClock, reg *obs.Registry, outs <-chan struct{}) {
	t.Helper()
	clk = &countingClock{Manual: clock.NewManual()}
	reg = obs.NewRegistry()
	ops := operator.Registry{}
	for _, id := range g.OpsOnSlot(slot) {
		id := id
		ops[id] = func() operator.Operator { return newOp(id, clk) }
	}
	published := make(chan struct{}, 4096) // more than any test has in flight
	n = New(Config{
		ID:       "p1",
		Phone:    phone.New("p1", phone.Config{}),
		Graph:    g,
		Registry: ops,
		Slot:     slot, OpIDs: g.OpsOnSlot(slot),
		Scheme:   ft.BaseScheme,
		Clock:    clk,
		Endpoint: simnet.NewEndpoint("p1", 16),
		Obs:      reg,

		OnSinkOutput: func(*tuple.Tuple) { published <- struct{}{} },
	})
	n.Start()
	t.Cleanup(n.Stop)
	return n, clk, reg, published
}

// chainObsNode starts a node hosting src -> out on slot s1. src takes the
// tuple's Seq in microseconds of simulated time, so each item's operator
// latency names it; out runs nested inside src and publishes.
func chainObsNode(t *testing.T) (n *Node, clk *countingClock, reg *obs.Registry, outs <-chan struct{}) {
	t.Helper()
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("out", "s1")
	gb.Chain("src", "out")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return startedObsNode(t, g, "s1", func(id string, clk *countingClock) operator.Operator {
		if id == "out" {
			return operator.NewPassthrough(id)
		}
		return operator.NewMap(id, func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple {
			clk.Advance(time.Duration(in.Seq) * time.Microsecond)
			return in
		})
	})
}

// runParked resumes the executor, waits for k published tuples and parks it.
func runParked(n *Node, outs <-chan struct{}, k int) {
	n.ResumeExec()
	for i := 0; i < k; i++ {
		<-outs
	}
	n.PauseExec() // returns once the executor has parked
}

// The executor times one item in each block of timeEvery its queue
// delivers and observes it with weight timeEvery: each edge's and each
// operator's count is timeEvery times the picked items, one per block, and
// its sum timeEvery times their values. A picked item reads the clock for
// its dequeue stamp only when the item before it left no reading, an
// untimed item reads it only when the next item is picked, and a reading
// does not survive the executor going idle.
func TestSampledTimingWeighsOneItemInEight(t *testing.T) {
	n, clk, reg, outs := chainObsNode(t)
	wait := reg.Hist(obs.EdgeWait, "__ext__->s1")
	srcLat, outLat := reg.Hist(obs.OpLatency, "src"), reg.Hist(obs.OpLatency, "out")
	src, _ := n.graph.OpID("src")
	ingest := func(seq uint64) {
		n.IngestExternal(src, &tuple.Tuple{Seq: seq, Source: "src", Created: clk.Manual.Now()})
	}

	// A backlog of N items, all enqueued 2 ms before the executor gets to
	// them, then run back to back; item k waits those 2 ms plus the k-1
	// µs-per-seq operator runs ahead of it.
	const N = 1001
	clk.Advance(time.Millisecond)
	n.PauseExec()
	for seq := uint64(1); seq <= N; seq++ {
		ingest(seq)
	}
	clk.Advance(2 * time.Millisecond)
	reads := clk.reads.Load()
	runParked(n, outs, N)

	// A replica of the queue's sampler names the picked items.
	var s sampler
	var timed, waitSum, latSum uint64
	var wantReads int64
	stamp := false // the executor resumes holding no reading
	ahead := 2 * time.Millisecond
	for k := uint64(1); k <= N; k++ {
		if s.weight(false) > 0 {
			timed++
			waitSum += uint64(ahead)
			latSum += uint64(time.Duration(k) * time.Microsecond)
			if !stamp {
				wantReads++ // its dequeue stamp
			}
			wantReads += 3 // src's end, the nested out's start and end
			stamp = true
		} else if stamp = s.due(); stamp {
			wantReads++ // the next item's dequeue stamp
		}
		ahead += time.Duration(k) * time.Microsecond
	}
	if timed < N/timeEvery || timed > (N+timeEvery-1)/timeEvery {
		t.Fatalf("%d of %d items picked, want one per block of %d", timed, N, timeEvery)
	}
	if want := timeEvery * timed; wait.Count() != want || srcLat.Count() != want || outLat.Count() != want {
		t.Fatalf("counts: edge wait %d, src latency %d, out latency %d, want %d each",
			wait.Count(), srcLat.Count(), outLat.Count(), want)
	}
	if got, want := wait.Sum(), timeEvery*waitSum; got != want {
		t.Fatalf("edge waits sum to %v, want %v", time.Duration(got), time.Duration(want))
	}
	if got, want := srcLat.Sum(), timeEvery*latSum; got != want {
		t.Fatalf("src latencies sum to %v, want %v", time.Duration(got), time.Duration(want))
	}
	if outLat.Sum() != 0 {
		t.Fatalf("out latencies sum to %v, want 0 (it takes no simulated time)", time.Duration(outLat.Sum()))
	}
	if got := clk.reads.Load() - reads; got != wantReads {
		t.Fatalf("executor read the clock %d times for %d back-to-back tuples (%d timed), want %d", got, N, timed, wantReads)
	}

	// Items up to the next pick add no count; only the last of them reads
	// the clock, for the picked item's stamp.
	reads, count := clk.reads.Load(), wait.Count()
	var rest int
	for seq := uint64(N + 1); !s.due(); seq++ {
		s.weight(false)
		ingest(seq)
		rest++
	}
	runParked(n, outs, rest)
	if got, want := clk.reads.Load()-reads, int64(min(rest, 1)); got != want || wait.Count() != count {
		t.Fatalf("%d untimed items read the clock %d times and added %d edge-wait counts, want %d and 0",
			rest, got, wait.Count()-count, want)
	}

	// That reading went stale when the executor parked: the picked item
	// enqueued now and run 5 ms later sees those 5 ms as its wait.
	sum := wait.Sum()
	ingest(uint64(N + rest + 1))
	clk.Advance(5 * time.Millisecond)
	runParked(n, outs, 1)
	if got, want := time.Duration(wait.Sum()-sum), timeEvery*5*time.Millisecond; got != want {
		t.Fatalf("wait after idle adds %v, want %v (a stale stamp?)", got, want)
	}
	if want := count + timeEvery; wait.Count() != want || srcLat.Count() != want || outLat.Count() != want {
		t.Fatalf("counts after idle: edge wait %d, src latency %d, out latency %d, want %d each",
			wait.Count(), srcLat.Count(), outLat.Count(), want)
	}
}

// A sampler picks exactly one item per block, the first block's first, and
// the picks wander across positions: items at every offset of a 32-item
// cycle (a full batch's flush is one of them) are picked at the same rate,
// where a fixed every-8th rule would pick four offsets always and the
// others never.
func TestSamplerPicksOnePerBlockAtItsTrueRate(t *testing.T) {
	var s sampler
	const blocks, cycle = 1 << 16, 32
	var hits [cycle]int
	for b := 0; b < blocks; b++ {
		picks := 0
		for i := 0; i < timeEvery; i++ {
			if s.weight(false) > 0 {
				picks++
				hits[(b*timeEvery+i)%cycle]++
				if b == 0 && i != 0 {
					t.Fatalf("first block picked item %d, want item 0", i)
				}
			}
		}
		if picks != 1 {
			t.Fatalf("block %d had %d picks, want 1", b, picks)
		}
	}
	want := float64(blocks) / cycle
	for off, h := range hits {
		if float64(h) < 0.9*want || float64(h) > 1.1*want {
			t.Fatalf("offset %d of %d picked %d times, want about %.0f", off, cycle, h, want)
		}
	}
}

// Each upstream queue keeps its own sampler. The executor round-robins
// across a node's two upstreams, so they alternate item by item; a
// node-wide counter would time every item on one edge and none on the other.
func TestSamplingCountsEachEdgeOnItsOwn(t *testing.T) {
	var gb graph.Builder
	gb.AddOperator("a", "s1").AddOperator("b", "s2").AddOperator("j", "s3")
	gb.Connect("a", "j").Connect("b", "j")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, clk, reg, outs := startedObsNode(t, g, "s3", func(id string, _ *countingClock) operator.Operator {
		return operator.NewPassthrough(id)
	})
	j, _ := g.OpID("j")
	const M = 101 // items per edge
	// An enqueue stamp of 0 reads as none, so start the clock past it.
	clk.Advance(time.Millisecond)
	n.PauseExec()
	for seq := uint64(1); seq <= M; seq++ {
		for _, up := range []string{"a", "b"} {
			from, _ := g.OpID(up)
			m := streamMsg{FromSlot: g.OpSlot(from), ToSlot: g.OpSlot(j), FromOp: from, ToOp: j, EdgeSeq: seq,
				Item: tuple.DataItem(&tuple.Tuple{Seq: seq, Source: up})}
			n.enqueueStream(&m)
		}
	}
	runParked(n, outs, 2*M)
	var s sampler
	var want uint64
	for i := 0; i < M; i++ {
		want += s.weight(false)
	}
	for _, edge := range []string{"s1->s3", "s2->s3"} {
		if got := reg.Hist(obs.EdgeWait, edge).Count(); got != want {
			t.Errorf("edge %s: %d edge-wait counts, want %d", edge, got, want)
		}
	}
	if got := reg.Hist(obs.OpLatency, "j").Count(); got != 2*want {
		t.Errorf("j latency count %d, want %d", got, 2*want)
	}
}

// A traced item is always timed, so its spans carry real stamps: off the
// sampler's pick it counts once, on it timeEvery times.
func TestSampledTimingAlwaysTimesTracedItems(t *testing.T) {
	n, clk, reg, outs := chainObsNode(t)
	wait := reg.Hist(obs.EdgeWait, "__ext__->s1")
	srcLat := reg.Hist(obs.OpLatency, "src")
	src, _ := n.graph.OpID("src")
	// A replica of the queue's sampler: trace the second block's pick and
	// another item of that block.
	const N = 16
	var s sampler
	var picked []uint64
	for seq := uint64(1); seq <= N; seq++ {
		if s.weight(false) > 0 {
			picked = append(picked, seq)
		}
	}
	on, off := picked[1], uint64(timeEvery+1)
	if on == off {
		off++
	}
	traced := map[uint64]obs.SpanCtx{on: {ID: 11}, off: {ID: 22}}
	clk.Advance(time.Millisecond)
	n.PauseExec()
	for seq := uint64(1); seq <= N; seq++ {
		n.IngestExternalTraced(src, &tuple.Tuple{Seq: seq, Source: "src", Created: clk.Manual.Now()}, traced[seq])
	}
	runParked(n, outs, N)
	if want := uint64(2*timeEvery + 1); wait.Count() != want || srcLat.Count() != want {
		t.Fatalf("counts: edge wait %d, src latency %d, want %d (picks %v weigh %d, traced item %d one)",
			wait.Count(), srcLat.Count(), want, picked, timeEvery, off)
	}
	// Each item's src run takes its Seq in µs.
	if got, want := srcLat.Sum(), (timeEvery*(picked[0]+picked[1])+off)*uint64(time.Microsecond); got != want {
		t.Fatalf("src latencies sum to %v, want %v", time.Duration(got), time.Duration(want))
	}
	for seq, tc := range traced {
		kinds := map[obs.SpanKind]int{}
		for _, s := range reg.Tracer.Spans() {
			if s.Trace == tc.ID {
				kinds[s.Kind]++
			}
		}
		if kinds[obs.SpanDequeue] != 1 || kinds[obs.SpanOp] != 2 || kinds[obs.SpanSink] != 1 {
			t.Errorf("item %d recorded spans %v, want a dequeue, two ops and a sink", seq, kinds)
		}
	}
}
