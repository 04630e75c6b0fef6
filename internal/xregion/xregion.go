// Package xregion runs a small MobiStreams region over the transport
// abstraction: a lead node assigns a fixed linear stage pipeline to worker
// nodes, workers stream wire-encoded tuples and in-band checkpoint tokens
// edge-to-edge, and every stage ships its checkpoint blobs back to the
// lead. The whole exchange — assignment, data, tokens, blobs, sink
// outputs, completion — is wire frames over transport.Transport, so the
// identical runtime executes on the simulated WiFi (transport.Sim) or on
// real TCP sockets across processes (transport.Socket).
//
// Determinism is the point: the pipeline is a linear chain, every edge is
// FIFO on both backends, tokens travel in-band, and each stage's state at
// token v is therefore a pure function of the workload prefix — so the
// wire-encoded checkpoint blobs and the sink output stream are
// byte-identical across backends on the same seed. The parity test pins
// exactly that.
package xregion

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/transport"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
)

// Spec parameterises one region run. The same spec on the same seed must
// produce the same blobs and sink outputs on every backend.
type Spec struct {
	// Seed drives the deterministic workload generator.
	Seed int64
	// Tuples is the number of tuples the source admits.
	Tuples int
	// TokenEvery inserts a checkpoint token after every that many tuples.
	TokenEvery int
	// SampleEvery traces every that-many-th source tuple end to end
	// (0 disables tracing). Trace identity derives from the tuple
	// sequence, so the span structure is backend-independent.
	SampleEvery int
}

// versions is the number of checkpoint versions the spec produces.
func (s Spec) versions() int { return s.Tuples / s.TokenEvery }

// Result is what the lead collected from one region run.
type Result struct {
	// Blobs maps "slot@version" to the wire-encoded checkpoint blob frame
	// exactly as it arrived from the hosting worker.
	Blobs map[string][]byte
	// SinkOuts counts tuples the sink stage published.
	SinkOuts int
	// SinkDigest is the hex SHA-256 over the sink output frames in
	// arrival order — equal digests mean equal outputs in equal order.
	SinkDigest string
	// Traces holds the reconstructed per-tuple waterfalls when the spec
	// sampled tracing, merged from every worker's span dump.
	Traces []obs.Waterfall
	// Redials/DeadConns are the lead transport's connection-health
	// counters (always 0 on the simulated backend).
	Redials   int64
	DeadConns int64
}

// The xregion control protocol rides on wire.Command / wire.Report with
// its own op space, well clear of the node runtime's values.
const (
	cmdPause    uint8 = 100 // lead → worker: run is over, exit the loop
	repJoin     uint8 = 100 // worker → lead: socket-mode join announcement
	repSinkDone uint8 = 101 // sink host → lead: replay-end reached the sink
)

// leadID is the lead's node ID in both backends.
const leadID simnet.NodeID = "lead"

// pipeline is the fixed stage chain: source → window → aggregate → sink.
// Hosts are filled in at assignment time.
var pipeline = []wire.AssignStage{
	{Slot: "s0", Op: "pass"},
	{Slot: "s1", Op: "win8"},
	{Slot: "s2", Op: "agg"},
	{Slot: "s3", Op: "pass"},
}

// newOp instantiates a stage operator by its assignment name.
func newOp(name, slot string) (operator.Operator, error) {
	switch name {
	case "pass":
		return operator.NewPassthrough(slot), nil
	case "win8":
		return operator.NewWindow(slot, 8), nil
	case "agg":
		return operator.NewAggregate(slot), nil
	default:
		return nil, fmt.Errorf("xregion: unknown operator %q", name)
	}
}

// ---- worker --------------------------------------------------------------

type event struct {
	from  simnet.NodeID
	class simnet.Class
	frame []byte
}

// stage is one pipeline slot hosted on this worker.
type stage struct {
	slot   string
	op     operator.Operator
	inSeq  uint64 // items received on the upstream edge
	outSeq uint64 // items emitted on the downstream edge
}

// worker executes its assigned stages: it decodes stream frames, runs the
// stage operators, forwards emissions downstream, checkpoints on tokens
// and ships the blobs to the lead. All frames are consumed through one
// unbounded event queue, so transport readers never block on processing
// (the transport handler only appends; stage work, including the inline
// source generator, happens on the loop goroutine).
type worker struct {
	tr transport.Transport

	mu   sync.Mutex
	cond *sync.Cond
	q    []event

	lead    simnet.NodeID
	stages  map[string]*stage
	next    map[string]string        // slot → downstream slot ("" at the sink)
	ops     map[string]string        // slot → operator ID (for Stream.ToOp)
	hosts   map[string]simnet.NodeID // slot → hosting node
	pending []event                  // frames that arrived before the assignment
	tracer  *obs.Tracer              // sampled causal tracing (assignment-configured)
}

// now is the span timestamp source: wall-clock nanoseconds. Cross-backend
// parity compares span structure only, never timestamps.
func (w *worker) now() int64 { return time.Now().UnixNano() }

// newWorker attaches a worker loop to a transport.
func newWorker(tr transport.Transport) *worker {
	w := &worker{tr: tr}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// run installs the receive handler and processes events until the lead
// sends a pause command or an error stops the loop.
func (w *worker) run() error {
	w.tr.Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
		w.mu.Lock()
		w.q = append(w.q, event{from, class, frame})
		w.cond.Signal()
		w.mu.Unlock()
	})
	for {
		w.mu.Lock()
		for len(w.q) == 0 {
			w.cond.Wait()
		}
		ev := w.q[0]
		w.q = w.q[1:]
		w.mu.Unlock()

		done, err := w.handle(ev)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

func (w *worker) handle(ev event) (done bool, err error) {
	switch wire.FrameKind(ev.frame) {
	case wire.KindAssign:
		a, err := wire.DecodeAssign(ev.frame)
		if err != nil {
			return false, fmt.Errorf("xregion: decode assign: %w", err)
		}
		if err := w.setup(&a); err != nil {
			return false, err
		}
		// Drain frames that raced ahead of the assignment, in order.
		pend := w.pending
		w.pending = nil
		for _, p := range pend {
			if done, err := w.handle(p); done || err != nil {
				return done, err
			}
		}
		// The source host drives the whole workload from here.
		if host, ok := w.hosts[pipeline[0].Slot]; ok && host == w.tr.Info().ID {
			return false, w.runSource(&a)
		}
		return false, nil
	case wire.KindCommand:
		c, err := wire.DecodeCommand(ev.frame)
		if err != nil {
			return false, fmt.Errorf("xregion: decode command: %w", err)
		}
		if c.Op == cmdPause {
			if err := w.sendSpans(); err != nil {
				return false, err
			}
			return true, nil
		}
		return false, nil
	case wire.KindStream:
		if w.stages == nil {
			w.pending = append(w.pending, ev)
			return false, nil
		}
		m, err := wire.DecodeStream(ev.frame)
		if err != nil {
			return false, fmt.Errorf("xregion: decode stream: %w", err)
		}
		return false, w.handleStream(&m)
	default:
		return false, nil // not part of the worker protocol; ignore
	}
}

// setup instantiates the stages this worker hosts and learns the region
// topology and address book from the assignment.
func (w *worker) setup(a *wire.Assign) error {
	w.lead = a.Lead
	w.tracer = obs.NewTracer(16384)
	w.tracer.SetSampleEvery(a.SampleEvery)
	w.stages = make(map[string]*stage)
	w.next = make(map[string]string)
	w.ops = make(map[string]string)
	w.hosts = make(map[string]simnet.NodeID)
	for i, s := range a.Stages {
		w.hosts[s.Slot] = s.Host
		w.ops[s.Slot] = s.Slot // operator ID == slot name (newOp binds them)
		if i+1 < len(a.Stages) {
			w.next[s.Slot] = a.Stages[i+1].Slot
		} else {
			w.next[s.Slot] = ""
		}
		if s.Host != w.tr.Info().ID {
			continue
		}
		op, err := newOp(s.Op, s.Slot)
		if err != nil {
			return err
		}
		w.stages[s.Slot] = &stage{slot: s.Slot, op: op}
	}
	if s, ok := w.tr.(*transport.Socket); ok {
		for _, p := range a.Peers {
			if p.ID != w.tr.Info().ID {
				s.AddPeer(p.ID, p.Addr)
			}
		}
	}
	return nil
}

// runSource generates the seeded workload through the source stage:
// tuples, an in-band token every TokenEvery tuples (checkpointing the
// source as it passes), and a terminal replay-end marker.
func (w *worker) runSource(a *wire.Assign) error {
	st := w.stages[pipeline[0].Slot]
	rng := rand.New(rand.NewSource(a.Seed))
	kinds := []string{"image", "businfo", "count"}
	version := uint64(0)
	for i := 1; i <= a.Tuples; i++ {
		t := &tuple.Tuple{
			Seq:     uint64(i),
			Source:  "src",
			Kind:    kinds[rng.Intn(len(kinds))],
			Created: time.Duration(i) * time.Millisecond,
			Size:    100 + rng.Intn(900),
			Value:   rng.Float64() * 100,
		}
		// Seq starts at 1; sampling keys on seq-1 so sample-every-1
		// traces the first tuple, matching the region's convention.
		tc, traced := w.tracer.Sample(t.Seq - 1)
		if traced {
			w.tracer.Record(&tc, obs.SpanIngest, string(w.tr.Info().ID), st.slot, "src", w.now())
		}
		if err := w.process(st, "", t, tc); err != nil {
			return err
		}
		if a.TokenEvery > 0 && i%a.TokenEvery == 0 {
			version++
			marker := tuple.Marker{Kind: tuple.MarkerToken, Version: version}
			if err := w.emit(st, tuple.MarkerItem(marker), nil); err != nil {
				return err
			}
			if err := w.checkpoint(st, version); err != nil {
				return err
			}
		}
	}
	end := tuple.Marker{Kind: tuple.MarkerReplayEnd}
	return w.emit(st, tuple.MarkerItem(end), nil)
}

func (w *worker) handleStream(m *wire.Stream) error {
	st, ok := w.stages[m.ToSlot]
	if !ok {
		return fmt.Errorf("xregion: %s received frame for unhosted slot %s", w.tr.Info().ID, m.ToSlot)
	}
	st.inSeq++
	if mk := m.Item.Marker; mk != nil {
		switch mk.Kind {
		case tuple.MarkerToken:
			if w.next[st.slot] != "" {
				if err := w.emit(st, m.Item, nil); err != nil {
					return err
				}
			}
			return w.checkpoint(st, mk.Version)
		case tuple.MarkerReplayEnd:
			if w.next[st.slot] != "" {
				return w.emit(st, m.Item, nil)
			}
			// The workload has fully drained through the sink.
			rp := wire.Report{Type: repSinkDone, Phone: w.tr.Info().ID, Slot: st.slot}
			return w.tr.Tell(w.lead, simnet.ClassControl, wire.AppendReport(nil, &rp))
		}
		return nil
	}
	tc := obs.SpanCtx{ID: m.TraceID, Seq: m.TraceSeq}
	if tc.ID != 0 {
		w.tracer.Record(&tc, obs.SpanRecv, string(w.tr.Info().ID), m.ToSlot, m.ToOp, w.now())
	}
	return w.process(st, m.FromOp, m.Item.Tuple, tc)
}

// process runs one tuple through a stage operator and routes the
// emissions: downstream as stream frames, or to the lead as sink outputs
// when this is the last stage.
func (w *worker) process(st *stage, from string, t *tuple.Tuple, tc obs.SpanCtx) error {
	if tc.ID != 0 {
		w.tracer.Record(&tc, obs.SpanOp, string(w.tr.Info().ID), st.slot, st.op.ID(), w.now())
	}
	outs, err := operator.Run(st.op, from, t)
	if err != nil {
		return fmt.Errorf("xregion: %s process: %w", st.slot, err)
	}
	sink := w.next[st.slot] == ""
	for i := range outs {
		if sink {
			if tc.ID != 0 {
				w.tracer.Record(&tc, obs.SpanSink, string(w.tr.Info().ID), st.slot, st.op.ID(), w.now())
			}
			sz, err := wire.SizeSinkOut(outs[i].T)
			if err != nil {
				return err
			}
			frame, err := wire.AppendSinkOut(make([]byte, 0, sz), outs[i].T)
			if err != nil {
				return err
			}
			st.outSeq++
			if err := w.tr.Tell(w.lead, simnet.ClassData, frame); err != nil {
				return err
			}
			continue
		}
		if err := w.emit(st, tuple.DataItem(outs[i].T), &tc); err != nil {
			return err
		}
	}
	return nil
}

// emit sends one item on the stage's downstream edge. A non-nil traced tc
// travels on the frame: the emit and send spans are recorded here (bumping
// the caller's context), the receive span on the downstream host.
func (w *worker) emit(st *stage, item tuple.Item, tc *obs.SpanCtx) error {
	next := w.next[st.slot]
	st.outSeq++
	var trace obs.SpanCtx
	if tc != nil && tc.ID != 0 {
		id := string(w.tr.Info().ID)
		w.tracer.Record(tc, obs.SpanEmit, id, st.slot, st.op.ID(), w.now())
		w.tracer.Record(tc, obs.SpanSend, id, st.slot, "", w.now())
		trace = *tc
	}
	m := wire.Stream{
		FromSlot: st.slot,
		FromOp:   st.op.ID(),
		ToSlot:   next,
		ToOp:     w.ops[next],
		EdgeSeq:  st.outSeq,
		TraceID:  trace.ID,
		TraceSeq: trace.Seq,
		Item:     item,
	}
	sz, err := wire.SizeStream(&m)
	if err != nil {
		return err
	}
	frame, err := wire.AppendStream(make([]byte, 0, sz), &m)
	if err != nil {
		return err
	}
	return w.tr.Tell(w.hosts[next], simnet.ClassData, frame)
}

// checkpoint snapshots the stage at a token version and ships the
// wire-encoded blob to the lead on the checkpoint plane.
func (w *worker) checkpoint(st *stage, version uint64) error {
	rt := wire.Runtime{
		OutSeq:     map[string]uint64{},
		InHW:       map[string]uint64{},
		LogVersion: version,
	}
	if next := w.next[st.slot]; next != "" {
		rt.OutSeq[st.slot+"->"+next] = st.outSeq
	}
	if st.slot != pipeline[0].Slot {
		rt.InHW["->"+st.slot] = st.inSeq
	}
	extra := wire.AppendRuntime(make([]byte, 0, wire.SizeRuntime(&rt)), &rt)
	blob, err := checkpoint.BuildBlob(st.slot, version, []operator.Operator{st.op}, extra)
	if err != nil {
		return err
	}
	frame := wire.AppendBlob(make([]byte, 0, wire.SizeBlob(blob)), blob)
	return w.tr.Tell(w.lead, simnet.ClassCheckpoint, frame)
}

// sendSpans ships this worker's recorded spans to the lead so it can
// stitch cross-process waterfalls. Skipped when the run never sampled.
func (w *worker) sendSpans() error {
	if w.tracer == nil || w.tracer.SampleEvery() <= 0 {
		return nil
	}
	d := wire.SpanDump{From: w.tr.Info().ID, Spans: w.tracer.Spans()}
	frame := wire.AppendSpans(make([]byte, 0, wire.SizeSpans(&d)), &d)
	return w.tr.Tell(w.lead, simnet.ClassControl, frame)
}

// ---- lead ----------------------------------------------------------------

// lead collects blobs and sink outputs until the run is complete.
type lead struct {
	tr   transport.Transport
	spec Spec

	mu       sync.Mutex
	blobs    map[string][]byte
	sinkHash []byte // running digest chain over sink frames
	sinkN    int
	sinkDone bool
	done     chan struct{}

	// Span dumps arrive after the pause command; spansDone closes when
	// every worker has reported (expectDumps > 0 only when sampling).
	spans       []obs.Span
	dumps       int
	expectDumps int
	spansDone   chan struct{}
}

func (l *lead) complete() bool {
	return l.sinkDone &&
		l.sinkN == l.spec.Tuples &&
		len(l.blobs) == l.spec.versions()*len(pipeline)
}

func (l *lead) handler(from simnet.NodeID, class simnet.Class, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch wire.FrameKind(frame) {
	case wire.KindBlob:
		b, err := wire.DecodeBlob(frame)
		if err != nil {
			return
		}
		l.blobs[fmt.Sprintf("%s@%d", b.Slot, b.Version)] = frame
	case wire.KindSinkOut:
		// Chain the digest so both order and content are pinned.
		h := sha256.New()
		h.Write(l.sinkHash)
		h.Write(frame)
		l.sinkHash = h.Sum(l.sinkHash[:0])
		l.sinkN++
	case wire.KindReport:
		rp, err := wire.DecodeReport(frame)
		if err != nil || rp.Type != repSinkDone {
			return
		}
		l.sinkDone = true
	case wire.KindSpans:
		d, err := wire.DecodeSpans(frame)
		if err != nil {
			return
		}
		l.spans = append(l.spans, d.Spans...)
		l.dumps++
		if l.expectDumps > 0 && l.dumps == l.expectDumps {
			close(l.spansDone)
		}
		return
	default:
		return
	}
	if l.complete() {
		select {
		case <-l.done:
		default:
			close(l.done)
		}
	}
}

// runLead drives one region: assign the pipeline to the given workers
// (stage i on workers[i mod n]), wait for every blob and sink output,
// then pause the workers and report.
func runLead(tr transport.Transport, spec Spec, workers []simnet.NodeID, peers []wire.AssignPeer, timeout time.Duration) (*Result, error) {
	if spec.Tuples <= 0 || spec.TokenEvery <= 0 {
		return nil, fmt.Errorf("xregion: spec needs positive Tuples and TokenEvery")
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("xregion: no workers")
	}
	l := &lead{tr: tr, spec: spec, blobs: make(map[string][]byte), done: make(chan struct{}), spansDone: make(chan struct{})}
	if spec.SampleEvery > 0 {
		l.expectDumps = len(workers)
	}
	tr.Receive(l.handler)

	a := wire.Assign{
		Lead:        tr.Info().ID,
		Seed:        spec.Seed,
		Tuples:      spec.Tuples,
		TokenEvery:  spec.TokenEvery,
		SampleEvery: spec.SampleEvery,
		Stages:      make([]wire.AssignStage, len(pipeline)),
		Peers:       peers,
	}
	for i, s := range pipeline {
		s.Host = workers[i%len(workers)]
		a.Stages[i] = s
	}
	frame := wire.AppendAssign(make([]byte, 0, wire.SizeAssign(&a)), &a)
	for _, id := range workers {
		if err := tr.Tell(id, simnet.ClassControl, frame); err != nil {
			return nil, fmt.Errorf("xregion: assign %s: %w", id, err)
		}
	}

	select {
	case <-l.done:
	case <-time.After(timeout):
		l.mu.Lock()
		got, want := len(l.blobs), spec.versions()*len(pipeline)
		n, fin := l.sinkN, l.sinkDone
		l.mu.Unlock()
		return nil, fmt.Errorf("xregion: timed out after %v: %d/%d blobs, %d/%d sink outputs, sink done=%v",
			timeout, got, want, n, spec.Tuples, fin)
	}

	pause := wire.Command{Op: cmdPause}
	pframe := wire.AppendCommand(make([]byte, 0, wire.SizeCommand(&pause)), &pause)
	for _, id := range workers {
		if err := tr.Tell(id, simnet.ClassControl, pframe); err != nil {
			return nil, fmt.Errorf("xregion: pause %s: %w", id, err)
		}
	}

	// Workers dump their spans on pause; wait for every worker before
	// stitching waterfalls, or the trace set would depend on scheduling.
	if l.expectDumps > 0 {
		select {
		case <-l.spansDone:
		case <-time.After(timeout):
			l.mu.Lock()
			got := l.dumps
			l.mu.Unlock()
			return nil, fmt.Errorf("xregion: timed out waiting for span dumps: %d/%d", got, l.expectDumps)
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	res := &Result{
		Blobs:      l.blobs,
		SinkOuts:   l.sinkN,
		SinkDigest: hex.EncodeToString(l.sinkHash),
		Traces:     obs.Waterfalls(l.spans),
	}
	if s, ok := tr.(*transport.Socket); ok {
		st := s.Stats()
		res.Redials, res.DeadConns = st.Redials, st.DeadConns
	}
	return res, nil
}

// ---- backends ------------------------------------------------------------

// RunSim runs the region in-process over the simulated WiFi: the lead and
// nWorkers workers as Sim transports on one shared medium.
func RunSim(spec Spec, nWorkers int) (*Result, error) {
	clk := clock.NewScaled(2000)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 20e6, Seed: spec.Seed})

	mk := func(id simnet.NodeID) *transport.Sim {
		ep := simnet.NewEndpoint(id, 4096)
		w.Join(ep)
		return transport.NewSim(ep, w, nil)
	}
	leadTr := mk(leadID)
	defer leadTr.Close()

	ids := make([]simnet.NodeID, nWorkers)
	var wg sync.WaitGroup
	workerErrs := make([]error, nWorkers)
	trs := make([]*transport.Sim, nWorkers)
	for i := 0; i < nWorkers; i++ {
		ids[i] = simnet.NodeID(fmt.Sprintf("w%d", i+1))
		trs[i] = mk(ids[i])
		wk := newWorker(trs[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = wk.run()
		}(i)
	}

	res, err := runLead(leadTr, spec, ids, nil, 60*time.Second)
	if err == nil {
		wg.Wait() // pause delivered: loops exit before we tear transports down
	}
	for _, tr := range trs {
		tr.Close()
	}
	if err != nil {
		return nil, err
	}
	for i, werr := range workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("xregion: worker %s: %w", ids[i], werr)
		}
	}
	return res, nil
}

// ListenLead binds the lead's socket so its ephemeral address is known
// before any worker starts. The caller owns the socket and passes it to
// RunLeadOn.
func ListenLead(listen string) (*transport.Socket, error) {
	return transport.NewSocket(leadID, listen, "")
}

// RunLeadOn runs the lead protocol over an already-bound socket.
func RunLeadOn(s *transport.Socket, spec Spec, nWorkers int, timeout time.Duration) (*Result, error) {
	if err := s.WaitPeers(nWorkers, timeout); err != nil {
		return nil, err
	}
	ids := s.Peers()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	peers := make([]wire.AssignPeer, 0, len(ids)+1)
	peers = append(peers, wire.AssignPeer{ID: leadID, Addr: s.Info().Addr})
	for _, id := range ids {
		addr, _ := s.PeerAddr(id)
		peers = append(peers, wire.AssignPeer{ID: id, Addr: addr})
	}
	return runLead(s, spec, ids, peers, timeout)
}

// RunWorkerTCP runs one worker process: listen, join the lead, execute
// assigned stages until the lead pauses the region.
func RunWorkerTCP(id simnet.NodeID, listen, join string) error {
	s, err := transport.NewSocket(id, listen, "")
	if err != nil {
		return err
	}
	defer s.Close()
	s.AddPeer(leadID, join)
	w := newWorker(s)
	// Receive must be installed before the join announcement, or the
	// assignment could race the handler.
	s.Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
		w.mu.Lock()
		w.q = append(w.q, event{from, class, frame})
		w.cond.Signal()
		w.mu.Unlock()
	})
	rp := wire.Report{Type: repJoin, Phone: id}
	if err := s.Tell(leadID, simnet.ClassControl, wire.AppendReport(nil, &rp)); err != nil {
		return fmt.Errorf("xregion: join %s: %w", join, err)
	}
	return w.run()
}
