package node

import (
	"slices"
	"testing"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
	"mobistreams/internal/tuple"
)

// preserveHarness is a source node under scheme ms with two listeners on its
// WiFi medium: tap, a bare endpoint whose inbox shows the preservation
// datagrams as sent, and peer, an idle node whose store takes the replicas.
type preserveHarness struct {
	n    *Node
	wifi *simnet.WiFi
	tap  *simnet.Endpoint
	peer *storage.Store
	outs chan *tuple.Tuple
}

// newPreserveHarness builds the harness around the one-slot graph src ->
// out; out publishes. srcCost is src's modelled service time (nil: none).
func newPreserveHarness(t *testing.T, ph phone.Config, srcCost func(*tuple.Tuple) time.Duration) *preserveHarness {
	t.Helper()
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("out", "s1")
	gb.Chain("src", "out")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewScaled(1e6) // modelled flash and CPU time cost microseconds
	h := &preserveHarness{
		wifi: simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12}),
		tap:  simnet.NewEndpoint("tap", 4096),
		peer: storage.New(),
		outs: make(chan *tuple.Tuple, 4096), // more than any test publishes
	}
	srcEP, peerEP := simnet.NewEndpoint("p1", 64), simnet.NewEndpoint("p2", 4096)
	h.wifi.Join(srcEP)
	h.wifi.Join(h.tap)
	h.wifi.Join(peerEP)
	base := Config{
		Graph: g,
		Registry: operator.Registry{
			"src": func() operator.Operator {
				m := operator.NewMap("src", func(in *tuple.Tuple) *tuple.Tuple { return in })
				m.CostFn = srcCost
				return m
			},
			"out": func() operator.Operator { return operator.NewPassthrough("out") },
		},
		Scheme:            ft.MSScheme,
		Clock:             clk,
		WiFi:              h.wifi,
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
	}
	src := base
	src.ID, src.Phone, src.Store, src.Endpoint = "p1", phone.New("p1", ph), storage.New(), srcEP
	src.Slot, src.OpIDs = "s1", g.OpsOnSlot("s1")
	src.OnSinkOutput = func(t *tuple.Tuple) { h.outs <- t }
	h.n = New(src)
	idle := base
	idle.ID, idle.Phone, idle.Store, idle.Endpoint = "p2", phone.New("p2", phone.Config{}), h.peer, peerEP
	peer := New(idle)
	h.n.Start()
	peer.Start()
	t.Cleanup(func() {
		h.n.Stop()
		peer.Stop()
	})
	return h
}

// ingest admits tuples of the given sizes on src, numbered from seq up.
func (h *preserveHarness) ingest(seq uint64, sizes ...int) {
	for i, sz := range sizes {
		h.n.IngestExternal("src", &tuple.Tuple{Seq: seq + uint64(i), Source: "src", Size: sz})
	}
}

// published waits for n sink outputs and returns their sequence numbers.
func (h *preserveHarness) published(t *testing.T, n int) []uint64 {
	t.Helper()
	seqs := make([]uint64, 0, n)
	for len(seqs) < n {
		select {
		case out := <-h.outs:
			seqs = append(seqs, out.Seq)
		case <-time.After(10 * time.Second):
			t.Fatalf("published %v, want %d outputs", seqs, n)
		}
	}
	return seqs
}

// datagrams drains the tap: every preservation datagram sent so far.
func (h *preserveHarness) datagrams(t *testing.T) []PreserveMsg {
	t.Helper()
	var out []PreserveMsg
	for {
		select {
		case m := <-h.tap.Inbox():
			if pm, ok := m.Payload.(PreserveMsg); ok && m.Class == simnet.ClassPreserve {
				if sum := sizeOf(pm.Ts); m.Size != sum {
					t.Fatalf("datagram of %d bytes carries %d bytes of tuples", m.Size, sum)
				}
				out = append(out, pm)
			}
		default:
			return out
		}
	}
}

// waitPeerLog polls the peer's replica log for version v until it holds n
// tuples (the peer's dispatch loop appends asynchronously).
func (h *preserveHarness) waitPeerLog(t *testing.T, v uint64, n int) []*tuple.Tuple {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.peer.SourceLogLen(v, "src") < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return h.peer.SourceLog(v, "src")
}

func seqsOf(ts []*tuple.Tuple) []uint64 {
	seqs := make([]uint64, len(ts))
	for i, t := range ts {
		seqs[i] = t.Seq
	}
	return seqs
}

func sizeOf(ts []*tuple.Tuple) int {
	n := 0
	for _, t := range ts {
		n += t.Size
	}
	return n
}

func upTo(n uint64) []uint64 {
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i + 1)
	}
	return seqs
}

// A queued burst packs greedily into runs of at most one broadcast block; a
// tuple larger than a block travels alone. Logs keep admission order and
// the byte accounting is exactly the sum of the tuple sizes.
func TestPreserveRunPacksUpToOneBlock(t *testing.T) {
	h := newPreserveHarness(t, phone.Config{}, nil)
	sizes := []int{400, 400, 300, 1024, 2000, 100, 100, 824, 1}
	wantRuns := [][]uint64{{1, 2}, {3}, {4}, {5}, {6, 7, 8}, {9}}
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	h.n.PauseExec()
	h.ingest(1, sizes...)
	h.n.ResumeExec()
	want := upTo(uint64(len(sizes)))
	if got := h.published(t, len(sizes)); !slices.Equal(got, want) {
		t.Fatalf("published %v, want %v", got, want)
	}
	grams := h.datagrams(t)
	if len(grams) != len(wantRuns) {
		t.Fatalf("%d preservation datagrams, want %d", len(grams), len(wantRuns))
	}
	for i, pm := range grams {
		if got := seqsOf(pm.Ts); !slices.Equal(got, wantRuns[i]) || pm.Source != "src" || pm.Version != 0 {
			t.Fatalf("datagram %d = %v (source %q, v%d), want %v", i, got, pm.Source, pm.Version, wantRuns[i])
		}
	}
	if got := seqsOf(h.n.cfg.Store.SourceLog(0, "src")); !slices.Equal(got, want) {
		t.Fatalf("source log %v, want %v", got, want)
	}
	if got := seqsOf(h.waitPeerLog(t, 0, len(sizes))); !slices.Equal(got, want) {
		t.Fatalf("replica log %v, want %v", got, want)
	}
	if src, _ := h.n.cfg.Store.CumulativePreservedBytes(); src != int64(total) {
		t.Fatalf("preserved bytes = %d, want %d", src, total)
	}
	if src, _ := h.peer.CumulativePreservedBytes(); src != 0 {
		t.Fatalf("replica counted %d preserved bytes, want 0 (counted once, at the source)", src)
	}
	if got := h.wifi.Counters.Bytes(simnet.ClassPreserve); got != int64(total) {
		t.Fatalf("ClassPreserve bytes = %d, want %d", got, total)
	}
}

// Sizeless tuples still count toward the block, so a run stays bounded; and
// without a configured block every run is one tuple.
func TestPreserveRunBoundedForSizelessTuples(t *testing.T) {
	h := newPreserveHarness(t, phone.Config{}, nil)
	const n = 3000
	h.n.PauseExec()
	h.ingest(1, make([]int, n)...)
	h.n.ResumeExec()
	h.published(t, n)
	sent := 0
	for _, pm := range h.datagrams(t) {
		if len(pm.Ts) > 1024 {
			t.Fatalf("one run carries %d sizeless tuples, want at most a block's worth", len(pm.Ts))
		}
		sent += len(pm.Ts)
	}
	if sent != n {
		t.Fatalf("datagrams carry %d tuples, want %d", sent, n)
	}

	h.n.PauseExec()
	h.n.cfg.Broadcast.BlockSize = 0 // the executor is parked and re-reads it under n.mu
	h.ingest(n+1, 0, 64, 0)
	h.n.ResumeExec()
	h.published(t, 3)
	if grams := h.datagrams(t); len(grams) != 3 {
		t.Fatalf("%d datagrams for 3 tuples without a block size, want 3", len(grams))
	}
}

// No run crosses a checkpoint token: tuples admitted before it are logged
// under the old version, tuples after it under the new one.
func TestPreserveRunStopsAtToken(t *testing.T) {
	h := newPreserveHarness(t, phone.Config{}, nil)
	h.n.PauseExec()
	h.ingest(1, 64, 64, 64)
	h.n.InjectToken(1)
	h.ingest(4, 64, 64)
	h.n.ResumeExec()
	h.published(t, 5)
	grams := h.datagrams(t)
	if len(grams) != 2 {
		t.Fatalf("%d preservation datagrams, want 2", len(grams))
	}
	for i, want := range [][]uint64{{1, 2, 3}, {4, 5}} {
		if got := seqsOf(grams[i].Ts); !slices.Equal(got, want) || grams[i].Version != uint64(i) {
			t.Fatalf("datagram %d = %v under v%d, want %v under v%d", i, got, grams[i].Version, want, i)
		}
		if got := seqsOf(h.n.cfg.Store.SourceLog(uint64(i), "src")); !slices.Equal(got, want) {
			t.Fatalf("source log v%d = %v, want %v", i, got, want)
		}
		if got := seqsOf(h.waitPeerLog(t, uint64(i), len(want))); !slices.Equal(got, want) {
			t.Fatalf("replica log v%d = %v, want %v", i, got, want)
		}
	}
}

// Replayed tuples are not preserved again, and the fresh tuples queued
// behind the replay-end marker form their own run.
func TestPreserveRunSkipsReplay(t *testing.T) {
	h := newPreserveHarness(t, phone.Config{}, nil)
	h.n.PauseExec()
	h.ingest(1, 64, 64, 64)
	h.n.ResumeExec()
	h.published(t, 3)
	h.n.PauseExec()
	h.ingest(4, 64, 64)
	h.n.ReplayFrom(0, 1)
	h.n.ResumeExec()
	if got, want := h.published(t, 5), []uint64{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("published %v after the replay, want %v", got, want)
	}
	grams := h.datagrams(t)
	if len(grams) != 2 {
		t.Fatalf("%d preservation datagrams, want 2 (the replay sends none)", len(grams))
	}
	if got, want := seqsOf(grams[1].Ts), []uint64{4, 5}; !slices.Equal(got, want) {
		t.Fatalf("post-replay datagram = %v, want %v", got, want)
	}
	for _, pm := range grams {
		for _, tp := range pm.Ts {
			if tp.Replay {
				t.Fatalf("replayed tuple %d was preserved again", tp.Seq)
			}
		}
	}
	if got := seqsOf(h.n.cfg.Store.SourceLog(0, "src")); !slices.Equal(got, upTo(5)) {
		t.Fatalf("source log %v, want each tuple once", got)
	}
}

// A source whose battery dies on the third tuple of a queued burst has
// preserved the whole run and emitted only what it executed: the rest of
// the run is left to the replay, not run by a dead phone.
func TestPreserveRunAbandonedOnFailure(t *testing.T) {
	// Only the third tuple costs CPU, more than the battery holds: the
	// tuples behind it are free, so nothing but the run's own check keeps
	// the dead phone from executing them.
	h := newPreserveHarness(t, phone.Config{BatteryJoules: 1, CPUWatts: 1}, func(tp *tuple.Tuple) time.Duration {
		if tp.Seq == 3 {
			return 2 * time.Second
		}
		return 0
	})
	h.n.PauseExec()
	h.ingest(1, 64, 64, 64, 64, 64, 64)
	h.n.ResumeExec()
	if got, want := h.published(t, 2), []uint64{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("published %v, want %v", got, want)
	}
	h.n.wg.Wait() // the failed node's loops have exited: nothing more can be emitted
	if !h.n.Failed() {
		t.Fatal("source still alive after its battery ran out")
	}
	select {
	case out := <-h.outs:
		t.Fatalf("dead source emitted tuple %d", out.Seq)
	default:
	}
	if got := seqsOf(h.waitPeerLog(t, 0, 6)); !slices.Equal(got, upTo(6)) {
		t.Fatalf("replica log %v, want the whole run %v", got, upTo(6))
	}
}

// The preserve step allocates per run, not per tuple.
func TestPreserveRunAllocsPerRun(t *testing.T) {
	h := newPreserveHarness(t, phone.Config{}, nil)
	h.n.PauseExec() // the test drives preserveRun on its own goroutine
	allocs := func(length int) float64 {
		run := make([]queued, length)
		for i := range run {
			run[i] = queued{toOp: "src", item: tuple.DataItem(&tuple.Tuple{Seq: uint64(i), Size: 64})}
		}
		return testing.AllocsPerRun(2000, func() { h.n.preserveRun(run) })
	}
	one, sixteen := allocs(1), allocs(16)
	if one != sixteen || one > 8 {
		t.Fatalf("preserveRun allocates %.0f times for a run of 1 and %.0f for a run of 16, want the same small constant", one, sixteen)
	}
}
