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
	man  *clock.Manual // set under preserveOpts.manual
	wifi *simnet.WiFi
	tap  *simnet.Endpoint
	peer *storage.Store
	outs chan emission
}

// emission is one sink output as the executor saw it at the moment of
// publishing: the clock, and how much of the v0 source log was written.
type emission struct {
	seq    uint64
	at     time.Duration
	logged int
}

type preserveOpts struct {
	phone   phone.Config
	srcCost func(*tuple.Tuple) time.Duration // src's modelled service time (nil: none)
	// manual runs the harness on a clock.Manual: modelled time passes only
	// when the test advances it, and the only sleeper is the source's
	// executor waiting out a flash write (airtime rounds to zero).
	manual bool
	// sibling gives the source's slot a second upstream, slot s0.
	sibling bool
}

// newPreserveHarness builds the harness around the one-slot graph src ->
// out; out publishes.
func newPreserveHarness(t *testing.T, o preserveOpts) *preserveHarness {
	t.Helper()
	var gb graph.Builder
	gb.AddOperator("src", "s1").AddOperator("out", "s1")
	gb.Chain("src", "out")
	if o.sibling {
		gb.AddOperator("up", "s0")
		gb.Chain("up", "out")
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := &preserveHarness{
		tap:  simnet.NewEndpoint("tap", 4096),
		peer: storage.New(),
		outs: make(chan emission, 4096), // more than any test publishes
	}
	var clk clock.Clock = clock.NewScaled(1e6) // modelled flash and CPU time cost microseconds
	bps := 1e12
	if o.manual {
		h.man = clock.NewManual()
		clk, bps = h.man, 1e15
	}
	h.wifi = simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: bps})
	srcEP, peerEP := simnet.NewEndpoint("p1", 64), simnet.NewEndpoint("p2", 4096)
	h.wifi.Join(srcEP)
	h.wifi.Join(h.tap)
	h.wifi.Join(peerEP)
	pass := func(id string) func() operator.Operator {
		return func() operator.Operator { return operator.NewPassthrough(id) }
	}
	base := Config{
		Graph: g,
		Registry: operator.Registry{
			"src": func() operator.Operator {
				m := operator.NewMap("src", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in })
				m.CostFn = o.srcCost
				return m
			},
			"out": pass("out"),
			"up":  pass("up"),
		},
		Scheme:            ft.MSScheme,
		Clock:             clk,
		WiFi:              h.wifi,
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
	}
	src := base
	src.ID, src.Phone, src.Store, src.Endpoint = "p1", phone.New("p1", o.phone), storage.New(), srcEP
	src.Slot, src.OpIDs = "s1", g.OpsOnSlot("s1")
	src.OnSinkOutput = func(t *tuple.Tuple) {
		h.outs <- emission{t.Seq, clk.Now(), src.Store.SourceLogLen(0, "src")}
	}
	h.n = New(src)
	idle := base
	idle.ID, idle.Phone, idle.Store, idle.Endpoint = "p2", phone.New("p2", phone.Config{}), h.peer, peerEP
	peer := New(idle)
	h.n.Start()
	peer.Start()
	t.Cleanup(func() {
		// Under a manual clock whatever still sleeps (a checkpoint's flash
		// write, a flash wait) must be let through for the loops to exit.
		stopped := make(chan struct{})
		if h.man != nil {
			go func() {
				for {
					select {
					case <-stopped:
						return
					default:
						h.man.Advance(time.Second)
						time.Sleep(100 * time.Microsecond)
					}
				}
			}()
		}
		h.n.Stop()
		peer.Stop()
		close(stopped)
	})
	return h
}

// ingest admits tuples of the given sizes on src, numbered from seq up.
func (h *preserveHarness) ingest(seq uint64, sizes ...int) {
	for i, sz := range sizes {
		h.n.IngestExternal(mustOp(h.n.graph, "src"), &tuple.Tuple{Seq: seq + uint64(i), Source: "src", Size: sz})
	}
}

// emitted waits for n sink outputs.
func (h *preserveHarness) emitted(t *testing.T, n int) []emission {
	t.Helper()
	ems := make([]emission, 0, n)
	for len(ems) < n {
		select {
		case em := <-h.outs:
			ems = append(ems, em)
		case <-time.After(10 * time.Second):
			t.Fatalf("published %v, want %d outputs", ems, n)
		}
	}
	return ems
}

// published waits for n sink outputs and returns their sequence numbers.
func (h *preserveHarness) published(t *testing.T, n int) []uint64 {
	t.Helper()
	seqs := make([]uint64, n)
	for i, em := range h.emitted(t, n) {
		seqs[i] = em.seq
	}
	return seqs
}

// asleep waits until the source's executor blocks on the manual clock: it
// has committed what it may and is waiting out its head block's flash write.
func (h *preserveHarness) asleep(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); h.man.PendingTimers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("executor never waited on a flash write")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// flash is the modelled flash write time of the given tuple sizes together.
func (h *preserveHarness) flash(sizes ...int) time.Duration {
	sum := 0
	for _, sz := range sizes {
		sum += sz
	}
	return h.n.cfg.Phone.FlashWriteTime(sum)
}

// datagrams drains the tap: every preservation datagram sent so far.
func (h *preserveHarness) datagrams(t *testing.T) []*preserveMsg {
	t.Helper()
	var out []*preserveMsg
	for {
		select {
		case m := <-h.tap.Inbox():
			if pm, ok := m.Payload.(*preserveMsg); ok && m.Class == simnet.ClassPreserve {
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
	h := newPreserveHarness(t, preserveOpts{})
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
	h := newPreserveHarness(t, preserveOpts{})
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

// No run crosses a checkpoint token, however deep the pipeline runs on
// either side of it: tuples admitted before it are logged under the old
// version, tuples after it under the new one, at the source and at the
// replica alike, in admission order and counted byte for byte.
func TestPreserveRunStopsAtToken(t *testing.T) {
	h := newPreserveHarness(t, preserveOpts{})
	const side = 40 // 64-byte tuples: blocks of 16, 16 and 8 on each side
	burst := make([]int, side)
	for i := range burst {
		burst[i] = 64
	}
	h.n.PauseExec()
	h.ingest(1, burst...)
	h.n.InjectToken(1)
	h.ingest(side+1, burst...)
	h.n.ResumeExec()
	if got := h.published(t, 2*side); !slices.Equal(got, upTo(2*side)) {
		t.Fatalf("published %v, want %v", got, upTo(2*side))
	}
	grams := h.datagrams(t)
	if len(grams) != 6 {
		t.Fatalf("%d preservation datagrams, want 6", len(grams))
	}
	for i, pm := range grams {
		if want := uint64(i / 3); pm.Version != want {
			t.Fatalf("datagram %d = %v under v%d, want v%d", i, seqsOf(pm.Ts), pm.Version, want)
		}
	}
	for v, want := range [][]uint64{upTo(side), upTo(2 * side)[side:]} {
		if got := seqsOf(h.n.cfg.Store.SourceLog(uint64(v), "src")); !slices.Equal(got, want) {
			t.Fatalf("source log v%d = %v, want %v", v, got, want)
		}
		if got := seqsOf(h.waitPeerLog(t, uint64(v), side)); !slices.Equal(got, want) {
			t.Fatalf("replica log v%d = %v, want %v", v, got, want)
		}
	}
	if src, _ := h.n.cfg.Store.CumulativePreservedBytes(); src != 2*side*64 {
		t.Fatalf("preserved bytes = %d, want %d", src, 2*side*64)
	}
	if got := h.wifi.Counters.Bytes(simnet.ClassPreserve); got != 2*side*64 {
		t.Fatalf("ClassPreserve bytes = %d, want %d", got, 2*side*64)
	}
}

// Replayed tuples are not preserved again, and the fresh tuples queued
// behind the replay-end marker form their own run.
func TestPreserveRunSkipsReplay(t *testing.T) {
	h := newPreserveHarness(t, preserveOpts{})
	h.n.PauseExec()
	h.ingest(1, 64, 64, 64)
	h.n.ResumeExec()
	h.published(t, 3)
	h.n.PauseExec()
	h.ingest(4, 64, 64)
	h.n.replayFrom(0, 1)
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
// emitted only what it executed and abandons everything else it committed —
// the rest of its block and the block committed behind it, which are in the
// replica log for the replay, not run by a dead phone. What it had not
// committed stays queued, and its scratch pins nothing.
func TestPreserveRunAbandonedOnFailure(t *testing.T) {
	// Only the third tuple costs CPU, more than the battery holds: the
	// tuples behind it are free, so nothing but the run's own check keeps
	// the dead phone from executing them.
	h := newPreserveHarness(t, preserveOpts{phone: phone.Config{BatteryJoules: 1}, srcCost: func(tp *tuple.Tuple) time.Duration {
		if tp.Seq == 3 {
			return 2 * time.Second
		}
		return 0
	}})
	burst := make([]int, 40) // blocks of 16, 16 and 8
	for i := range burst {
		burst[i] = 64
	}
	h.n.PauseExec()
	h.ingest(1, burst...)
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
		t.Fatalf("dead source emitted tuple %d", out.seq)
	default:
	}
	if got := seqsOf(h.waitPeerLog(t, 0, 32)); !slices.Equal(got, upTo(32)) {
		t.Fatalf("replica log %v, want the two committed blocks %v", got, upTo(32))
	}
	if got := h.n.Backlog(); got != 8 {
		t.Fatalf("%d tuples still queued, want the 8 never committed", got)
	}
	for i, buf := range h.n.runs {
		for j, it := range buf[:cap(buf)] {
			if it != (queued{}) {
				t.Fatalf("scratch buffer %d still pins tuple %d at index %d", i, it.item.Tuple.Seq, j)
			}
		}
	}
}

// The pipeline on a clock the test owns. With a burst queued, block k+1 is in
// the log and on the air before block k executes, never a third; a block
// executes exactly when its own flash write completes, and the writes are
// serial on the device: block k is durable at the summed write time of
// blocks 1..k, not sooner. A lone tuple on an idle stream waits out its own
// write and nothing else.
func TestPreservePipelineOverlapsCommitWithExecution(t *testing.T) {
	h := newPreserveHarness(t, preserveOpts{manual: true})
	blocks := [][]int{{256, 256, 256, 256}, {512, 512}, {1024}, {64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64}, {100, 100, 100}}
	ends := make([]int, len(blocks)) // ends[k]: tuples in blocks 0..k
	admitted := 0
	h.n.PauseExec()
	for k, blk := range blocks {
		h.ingest(uint64(admitted+1), blk...)
		admitted += len(blk)
		ends[k] = admitted
	}
	h.n.ResumeExec()
	durable := time.Duration(0) // when the device finishes the block about to execute
	for k, blk := range blocks {
		h.asleep(t)
		committed := min(k+1, len(blocks)-1)
		if got := h.n.cfg.Store.SourceLogLen(0, "src"); got != ends[committed] {
			t.Fatalf("waiting on block %d with %d tuples logged, want blocks 0..%d = %d", k, got, committed, ends[committed])
		}
		if got := len(h.tap.Inbox()); got != committed+1 {
			t.Fatalf("waiting on block %d with %d datagrams sent, want %d", k, got, committed+1)
		}
		durable += h.flash(blk...)
		h.man.Advance(durable - h.man.Now() - 1)
		if h.man.PendingTimers() != 1 || len(h.outs) != 0 {
			t.Fatalf("block %d ran before its flash write completed at %v", k, durable)
		}
		h.man.Advance(1)
		for i, em := range h.emitted(t, len(blk)) {
			if want := uint64(ends[k] - len(blk) + i + 1); em.seq != want || em.at != durable || em.logged < int(want) {
				t.Fatalf("block %d emitted tuple %d at %v with %d logged, want tuple %d at %v", k, em.seq, em.at, em.logged, want, durable)
			}
		}
	}
	if got := seqsOf(h.waitPeerLog(t, 0, admitted)); !slices.Equal(got, upTo(uint64(admitted))) {
		t.Fatalf("replica log %v, want admission order", got)
	}

	h.man.Advance(time.Millisecond) // the device has long been idle
	idleAt := h.man.Now()
	h.ingest(1000, 64)
	h.asleep(t)
	h.man.Advance(h.flash(64) - 1)
	if len(h.outs) != 0 {
		t.Fatal("a lone tuple ran before its flash write completed")
	}
	h.man.Advance(1)
	if em := h.emitted(t, 1)[0]; em.seq != 1000 || em.at != idleAt+h.flash(64) {
		t.Fatalf("lone tuple %d emitted at %v, want at %v", em.seq, em.at, idleAt+h.flash(64))
	}
}

// Nothing is committed past something the executor must handle first: while
// a committed block waits, the queue is not popped beyond a token, a
// replay-end marker, a replayed tuple, a queued command, a pause request or
// a sibling queue with work. Three blocks are queued; with the first
// executed and the second waiting on its flash write, the third is in the log
// only when nothing stands in the way.
func TestPreservePipelineStopsAtBarrier(t *testing.T) {
	block := make([]int, 16)
	for i := range block {
		block[i] = 64
	}
	push := func(h *preserveHarness, slot string, it queued) {
		from := graph.ExternalSlot
		if slot != "" {
			from = mustSlot(h.n.graph, slot)
		}
		h.n.mu.Lock()
		q := h.n.queueFor(from)
		q.push(&it)
		h.n.mu.Unlock()
	}
	cases := []struct {
		name    string
		sibling bool
		// queued runs between the second and third block's admission; late
		// once the executor waits on the first block's flash write.
		queued, late func(h *preserveHarness)
		logged       int // v0 source log once the first block has executed
		extra        int // sink outputs beyond the three blocks
	}{
		{name: "nothing", logged: 48},
		{name: "token", queued: func(h *preserveHarness) { h.n.InjectToken(1) }, logged: 32},
		{name: "replay-end marker", queued: func(h *preserveHarness) {
			push(h, "", queued{item: tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerReplayEnd, Version: 1})})
		}, logged: 32},
		{name: "replayed tuple", queued: func(h *preserveHarness) {
			push(h, "", queued{toOp: mustOp(h.n.graph, "src"), item: tuple.DataItem(&tuple.Tuple{Seq: 999, Size: 64, Replay: true})})
		}, logged: 32, extra: 1},
		{name: "command", late: func(h *preserveHarness) { h.n.injectCmd(execCmd{resendTo: "nowhere"}) }, logged: 32},
		{name: "pause request", late: func(h *preserveHarness) {
			h.n.mu.Lock()
			h.n.transitionLocked(CmdPause, "test") // a pause request that does not wait
			h.n.mu.Unlock()
		}, logged: 32},
		{name: "sibling queue", sibling: true, late: func(h *preserveHarness) {
			push(h, "s0", queued{fromOp: mustOp(h.n.graph, "up"), toOp: mustOp(h.n.graph, "out"), edgeSeq: 1, item: tuple.DataItem(&tuple.Tuple{Seq: 999, Size: 64})})
		}, logged: 32, extra: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newPreserveHarness(t, preserveOpts{manual: true, sibling: c.sibling})
			h.n.PauseExec()
			h.ingest(1, block...)
			h.ingest(17, block...)
			if c.queued != nil {
				c.queued(h)
			}
			h.ingest(33, block...)
			h.n.ResumeExec()
			h.asleep(t)
			if c.late != nil {
				c.late(h)
			}
			h.man.Advance(h.flash(block...))
			if got := h.published(t, 16); !slices.Equal(got, upTo(16)) {
				t.Fatalf("published %v, want the first block", got)
			}
			h.asleep(t)
			if got := h.n.cfg.Store.SourceLogLen(0, "src"); got != c.logged {
				t.Fatalf("%d tuples logged behind the first block, want %d", got, c.logged)
			}
			if got := len(h.tap.Inbox()); got != c.logged/16 {
				t.Fatalf("%d datagrams sent behind the first block, want %d", got, c.logged/16)
			}
			// Whatever stood in the way is handled in its turn and nothing
			// is lost: every admitted tuple comes out.
			h.n.ResumeExec()
			rest := 32 + c.extra
			for deadline := time.Now().Add(10 * time.Second); rest > 0 && time.Now().Before(deadline); {
				h.man.Advance(time.Millisecond)
				for len(h.outs) > 0 {
					<-h.outs
					rest--
				}
				time.Sleep(50 * time.Microsecond)
			}
			if rest != 0 {
				t.Fatalf("%d admitted tuples never came out", rest)
			}
		})
	}
}

// The preserve step allocates per run, not per tuple: its datagram, while
// the run's tuple list is carved from the executor's slab.
func TestPreserveRunAllocsPerRun(t *testing.T) {
	h := newPreserveHarness(t, preserveOpts{})
	h.n.PauseExec() // the test drives preserveRun on its own goroutine
	allocs := func(length int) float64 {
		run := make([]queued, length)
		for i := range run {
			run[i] = queued{toOp: mustOp(h.n.graph, "src"), item: tuple.DataItem(&tuple.Tuple{Seq: uint64(i), Size: 64})}
		}
		return testing.AllocsPerRun(2000, func() { h.n.preserveRun(run) })
	}
	one, sixteen := allocs(1), allocs(16)
	if one != sixteen || one > 1 {
		t.Fatalf("preserveRun allocates %.0f times for a run of 1 and %.0f for a run of 16, want at most 1 for either", one, sixteen)
	}
}
