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

// startedObsNode starts a node hosting one slot, src -> out, on a manual
// clock with histograms on. src is the first operator of every item; out
// runs nested inside it and publishes; every published tuple is announced
// on outs.
func startedObsNode(t *testing.T) (n *Node, clk *countingClock, reg *obs.Registry, outs <-chan struct{}) {
	t.Helper()
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("out", "s1")
	gb.Chain("src", "out")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk = &countingClock{Manual: clock.NewManual()}
	reg = obs.NewRegistry()
	published := make(chan struct{}, 4096) // more than any test has in flight
	n = New(Config{
		ID:    "p1",
		Phone: phone.New("p1", phone.Config{}),
		Graph: g,
		Registry: operator.Registry{
			"src": func() operator.Operator { return operator.NewPassthrough("src") },
			"out": func() operator.Operator { return operator.NewPassthrough("out") },
		},
		Slot: "s1", OpIDs: g.OpsOnSlot("s1"),
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

// Sharing one clock reading between a tuple's end and the next tuple's
// start loses no observation and reads the clock once per tuple boundary;
// a reading does not survive the executor going idle.
func TestClockSharingKeepsEveryObservation(t *testing.T) {
	n, clk, reg, outs := startedObsNode(t)
	wait := reg.Hist(obs.EdgeWait, "__ext__->s1")
	srcLat, outLat := reg.Hist(obs.OpLatency, "src"), reg.Hist(obs.OpLatency, "out")
	src, _ := n.graph.OpID("src")
	ingest := func(seq uint64) {
		n.IngestExternal(src, &tuple.Tuple{Seq: seq, Source: "src", Created: clk.Manual.Now()})
	}

	// A backlog of N items, all enqueued 2 ms before the executor gets to
	// them, then run back to back.
	const N = 1000
	clk.Advance(time.Millisecond)
	n.PauseExec()
	for seq := uint64(1); seq <= N; seq++ {
		ingest(seq)
	}
	clk.Advance(2 * time.Millisecond)
	reads := clk.reads.Load()
	n.ResumeExec()
	for i := 0; i < N; i++ {
		<-outs
	}
	n.PauseExec() // returns once the executor has parked
	if wait.Count() != N || srcLat.Count() != N || outLat.Count() != N {
		t.Fatalf("observations: edge wait %d, src latency %d, out latency %d, want %d each",
			wait.Count(), srcLat.Count(), outLat.Count(), N)
	}
	if got, want := wait.Sum(), uint64(N*2*time.Millisecond); got != want {
		t.Fatalf("edge waits sum to %v, want %v", time.Duration(got), time.Duration(want))
	}
	// Per item: src's end stamp, and the nested out's start and end. The
	// first item also needs a dequeue stamp; every later one reuses its
	// predecessor's end stamp.
	if got, want := clk.reads.Load()-reads, int64(3*N+1); got != want {
		t.Fatalf("executor read the clock %d times for %d back-to-back tuples, want %d", got, N, want)
	}

	// The executor is parked holding no stamp: an item enqueued now and run
	// 5 ms later must see those 5 ms as its wait. The stale end stamp of
	// item N (equal to this item's enqueue time) would report none.
	ingest(N + 1)
	clk.Advance(5 * time.Millisecond)
	n.ResumeExec()
	<-outs
	n.PauseExec()
	if got, want := time.Duration(wait.Max()), 5*time.Millisecond; got != want {
		t.Fatalf("wait after idle = %v, want %v (stale boundary stamp?)", got, want)
	}
	if wait.Count() != N+1 || srcLat.Count() != N+1 || outLat.Count() != N+1 {
		t.Fatalf("observations after idle: edge wait %d, src latency %d, out latency %d, want %d each",
			wait.Count(), srcLat.Count(), outLat.Count(), N+1)
	}
}
