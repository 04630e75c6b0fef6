package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/keyed"
	"mobistreams/internal/node"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
	"mobistreams/internal/transport"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
	"mobistreams/stream"
)

// The micro phase of a traced run times each layer's public functions from
// one goroutine, on the workload's own tuple shape, so a layer's cost can
// be set against the end-to-end CPU per tuple of the same run.

// microShape is the tuple a workload moves: payload value, modelled size,
// kind, and (for the region workloads) the pipeline whose operators the
// single-threaded baseline chains.
type microShape struct {
	value    interface{}
	size     int
	kind     string
	pipeline func() (*stream.Pipeline, error)
	// layers names the micro groups to run: only the layers the workload
	// exercises, so the others' rows read 0 in its ledger.
	layers []string
}

const (
	microMinIters = 200000
	microMaxTime  = 500 * time.Millisecond
)

// timeIt runs fn in chunks until it has done microMinIters iterations or
// spent microMaxTime, whichever comes first, and reports ns and heap
// allocations per iteration. The whole measurement is one span.
func timeIt(rec *recorder, name string, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	fn(64) // warm caches and lazily grown buffers
	chunk := 1024
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := now()
	iters := 0
	for iters < microMinIters && now()-start < int64(microMaxTime) {
		fn(chunk)
		iters += chunk
	}
	elapsed := now() - start
	runtime.ReadMemStats(&ms)
	rec.call(name, start, 0)
	return float64(elapsed) / float64(iters), float64(ms.Mallocs-m0) / float64(iters)
}

var microGroups = map[string]func(microShape, *recorder, ledger){
	"wire":       microWire,
	"wireblob":   microWireBlob,
	"transport":  microTransport,
	"simnet":     microSimnet,
	"node":       microNodeObs,
	"keyed":      microKeyed,
	"checkpoint": microCheckpointStorage,
	"broadcast":  microBroadcast,
	"baseline":   microBaseline,
}

func runMicro(shape microShape, rec *recorder, l ledger) {
	for _, name := range shape.layers {
		microGroups[name](shape, rec, l)
	}
}

func shapeTuple(shape microShape) *tuple.Tuple {
	return &tuple.Tuple{Seq: 12345, Source: "src", Kind: shape.kind, Created: time.Second, Size: shape.size, Value: shape.value}
}

func shapeStream(shape microShape) wire.Stream {
	return wire.Stream{FromSlot: "src", FromOp: "gen", ToSlot: "r1", ToOp: "fwd", EdgeSeq: 12345, Item: tuple.DataItem(shapeTuple(shape))}
}

// stateOps builds a keyed aggregate holding n keys: the state the
// checkpoint, storage and blob-codec micros work on.
func stateOps(n int) []operator.Operator {
	agg := operator.NewAggregate("sum")
	for i := 0; i < n; i++ {
		t := &tuple.Tuple{Seq: uint64(i + 1), Kind: keyName(uint32(i)), Value: float64(i)}
		if _, err := operator.Run(agg, "src", t); err != nil {
			panic(err) // a bug in the benchmark: Aggregate accepts any float64
		}
	}
	return []operator.Operator{agg}
}

func microWire(shape microShape, rec *recorder, l ledger) {
	sm := shapeStream(shape)
	frame, err := wire.AppendStream(nil, &sm)
	if err != nil {
		return // shape not encodable: the workload never puts it on a wire
	}
	buf := make([]byte, 0, 2*len(frame))
	l["wire.encode_stream_ns"], _ = timeIt(rec, "AppendStream", func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendStream(buf[:0], &sm)
		}
	})
	l["wire.decode_stream_ns"], l["wire.decode_stream_allocs"] = timeIt(rec, "DecodeStream", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wire.DecodeStream(frame); err != nil {
				panic(err)
			}
		}
	})
	batch := wire.Batch{ToSlot: "r1", Msgs: make([]wire.Stream, frameTuples)}
	for i := range batch.Msgs {
		batch.Msgs[i] = shapeStream(shape)
	}
	bframe, _ := wire.AppendBatch(nil, &batch)
	l["wire.batch16_bytes_per_tuple"] = float64(len(bframe)) / frameTuples
	bbuf := make([]byte, 0, 2*len(bframe))
	ns, _ := timeIt(rec, "AppendBatch", func(n int) {
		for i := 0; i < n; i++ {
			bbuf, _ = wire.AppendBatch(bbuf[:0], &batch)
		}
	})
	l["wire.encode_batch16_ns_per_tuple"] = ns / frameTuples
	ns, allocs := timeIt(rec, "DecodeBatch", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wire.DecodeBatch(bframe); err != nil {
				panic(err)
			}
		}
	})
	l["wire.decode_batch16_ns_per_tuple"] = ns / frameTuples
	l["wire.decode_batch16_allocs_per_tuple"] = allocs / frameTuples
}

// microWireBlob times the checkpoint-blob codec, the part of wire the
// region runtime uses.
func microWireBlob(_ microShape, rec *recorder, l ledger) {
	blob, err := checkpoint.BuildBlob("s", 1, stateOps(4096), nil)
	if err != nil {
		return
	}
	kb := float64(wire.SizeBlob(blob)) / 1024
	blobBuf := make([]byte, 0, wire.SizeBlob(blob))
	ns, _ := timeIt(rec, "AppendBlob", func(n int) {
		for i := 0; i < n; i++ {
			blobBuf = wire.AppendBlob(blobBuf[:0], blob)
		}
	})
	l["wire.encode_blob_ns_per_kb"] = ns / kb
	ns, _ = timeIt(rec, "DecodeBlob", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := wire.DecodeBlob(blobBuf); err != nil {
				panic(err)
			}
		}
	})
	l["wire.decode_blob_ns_per_kb"] = ns / kb
}

func microTransport(shape microShape, rec *recorder, l ledger) {
	frame := make([]byte, 2*shape.size)

	mesh := transport.NewMesh(1)
	a, b := mesh.Attach("a"), mesh.Attach("b")
	b.Receive(func(simnet.NodeID, simnet.Class, []byte) {})
	l["transport.mem_tell_ns_per_frame"], _ = timeIt(rec, "Mem.Tell", func(n int) {
		for i := 0; i < n; i++ {
			a.Tell("b", simnet.ClassData, frame)
		}
		mesh.Drain()
	})
	a.Close()
	b.Close()

	clk := clock.NewScaled(1)
	wifi := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e9})
	epA, epB := simnet.NewEndpoint("a", 1<<14), simnet.NewEndpoint("b", 1<<14)
	wifi.Join(epA)
	wifi.Join(epB)
	sa, sb := transport.NewSim(epA, wifi, nil), transport.NewSim(epB, wifi, nil)
	sb.Receive(func(simnet.NodeID, simnet.Class, []byte) {})
	l["transport.sim_tell_ns_per_frame"], _ = timeIt(rec, "Sim.Tell", func(n int) {
		for i := 0; i < n; i++ {
			sa.Tell("b", simnet.ClassData, frame)
		}
	})
	sa.Close()
	sb.Close()

	// Socket round trip: a tells b, b's handler tells a back.
	x, err := transport.NewSocket("x", "127.0.0.1:0", "")
	if err != nil {
		return
	}
	defer x.Close()
	y, err := transport.NewSocket("y", "127.0.0.1:0", "")
	if err != nil {
		return
	}
	defer y.Close()
	x.AddPeer("y", y.Info().Addr)
	y.AddPeer("x", x.Info().Addr)
	back := make(chan struct{}, 1)
	y.Receive(func(_ simnet.NodeID, cl simnet.Class, f []byte) { y.Tell("x", cl, f) })
	x.Receive(func(simnet.NodeID, simnet.Class, []byte) { back <- struct{}{} })
	var rtts []int64
	start := now()
	for i := 0; i < 2000 && now()-start < int64(microMaxTime); i++ {
		t := now()
		if err := x.Tell("y", simnet.ClassData, frame); err != nil {
			return
		}
		select {
		case <-back:
		case <-time.After(time.Second):
			return
		}
		if i >= 16 { // the first trips dial and handshake
			rtts = append(rtts, now()-t)
		}
	}
	rec.call("Socket.Tell", start, 0)
	slices.Sort(rtts)
	l["transport.socket_rtt_us_p50"] = float64(percentile(rtts, 50)) / 1e3
}

func microSimnet(shape microShape, rec *recorder, l ledger) {
	clk := clock.NewScaled(1)
	wifi := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e9})
	a, b := simnet.NewEndpoint("a", 1<<14), simnet.NewEndpoint("b", 1<<14)
	wifi.Join(a)
	wifi.Join(b)
	payload := shapeTuple(shape)
	l["simnet.unicast_call_ns"], _ = timeIt(rec, "WiFi.Unicast", func(n int) {
		for i := 0; i < n; i++ {
			wifi.Unicast("a", "b", simnet.ClassData, shape.size, payload)
		}
		for len(b.Inbox()) > 0 { // n is below the inbox capacity
			<-b.Inbox()
		}
	})
}

func microNodeObs(_ microShape, rec *recorder, l ledger) {
	t := now()
	emit := node.RunEmitBench(false, microMinIters)
	rec.call("node.RunEmitBench", t, 0)
	l["node.emit_ns_per_tuple"] = emit.NsPerOp
	l["node.emit_allocs_per_tuple"] = emit.AllocsPerOp

	t = now()
	ob := node.RunObsBench(microMinIters)
	rec.call("node.RunObsBench", t, 0)
	l["obs.emit_overhead_pct"] = ob.OverheadPct

	var h obs.Histogram
	l["obs.histogram_observe_ns"], _ = timeIt(rec, "Histogram.Observe", func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i) * 37)
		}
	})

}

func microKeyed(_ microShape, rec *recorder, l ledger) {
	tbl, err := keyed.NewTable([]string{"4", "8", "c"}, 4)
	if err != nil {
		return
	}
	grp, err := keyed.NewGroup("sum", []string{"sum#0", "sum#1", "sum#2", "sum#3"}, tbl)
	if err != nil {
		return
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = keyName(uint32(i))
	}
	var sink int
	l["keyed.owner_lookup_ns"], _ = timeIt(rec, "Group.Owner", func(n int) {
		for i := 0; i < n; i++ {
			sink += grp.Owner(keys[i&1023])
		}
	})
	_ = sink
}

func microCheckpointStorage(shape microShape, rec *recorder, l ledger) {
	ops := stateOps(4096)
	full, err := checkpoint.BuildBlob("s", 1, ops, nil)
	if err != nil {
		return
	}
	kb := float64(full.Size) / 1024
	ns, _ := timeIt(rec, "BuildBlob", func(n int) {
		for i := 0; i < n; i += 64 { // one build stands for 64 iterations of the budget
			if _, err := checkpoint.BuildBlob("s", 1, ops, nil); err != nil {
				panic(err)
			}
		}
	})
	l["checkpoint.build_blob_ns_per_kb"] = ns * 64 / kb

	// Delta against version 1 after touching 1% of the keys.
	for _, op := range ops {
		op.(operator.DeltaSnapshotter).MarkSnapshot(1)
	}
	for i := 0; i < 41; i++ {
		t := &tuple.Tuple{Kind: keyName(uint32(i * 100)), Value: 1.5}
		operator.Run(ops[0], "src", t)
	}
	delta, err := checkpoint.BuildDeltaBlob("s", 2, 1, ops, nil)
	if err != nil || !delta.IsDelta() {
		return
	}
	ns, _ = timeIt(rec, "BuildDeltaBlob", func(n int) {
		for i := 0; i < n; i += 64 {
			if _, err := checkpoint.BuildDeltaBlob("s", 2, 1, ops, nil); err != nil {
				panic(err)
			}
		}
	})
	l["checkpoint.build_delta_ns_per_kb"] = ns * 64 / kb
	chain := []*checkpoint.Blob{full, delta}
	ns, _ = timeIt(rec, "MaterializeChain", func(n int) {
		for i := 0; i < n; i += 64 {
			if _, err := checkpoint.MaterializeChain(chain); err != nil {
				panic(err)
			}
		}
	})
	l["checkpoint.materialize_ns_per_kb"] = ns * 64 / kb
	fresh := []operator.Operator{operator.NewAggregate("sum")}
	ns, _ = timeIt(rec, "RestoreBlob", func(n int) {
		for i := 0; i < n; i += 64 {
			if err := checkpoint.RestoreBlob(full, fresh); err != nil {
				panic(err)
			}
		}
	})
	l["checkpoint.restore_ns_per_kb"] = ns * 64 / kb

	st := storage.New()
	blobs := make([]*checkpoint.Blob, 8)
	for i := range blobs {
		cp := *full
		cp.Version = uint64(i + 1)
		blobs[i] = &cp
	}
	l["storage.put_blob_ns"], _ = timeIt(rec, "Store.PutBlob", func(n int) {
		for i := 0; i < n; i++ {
			st.PutBlob(blobs[i&7])
		}
	})
	tp := shapeTuple(shape)
	l["storage.append_source_ns"], _ = timeIt(rec, "Store.AppendSource", func(n int) {
		for i := 0; i < n; i++ {
			st.AppendSource(1, "src", tp)
		}
	})
}

// microBroadcast disseminates a 256 KB blob to seven receivers over the
// paper's medium (3 Mbps, 2% loss) a few times and reports simulated
// milliseconds per megabyte.
func microBroadcast(_ microShape, rec *recorder, l ledger) {
	const blobBytes = 256 << 10
	clk := clock.NewScaled(200)
	wifi := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 3e6, LossProb: 0.02, Seed: 1})
	wifi.Join(simnet.NewEndpoint("s", 1<<14))
	stop := make(chan struct{})
	done := make(chan struct{})
	var peers []simnet.NodeID
	for i := 0; i < 7; i++ {
		id := simnet.NodeID(fmt.Sprintf("p%d", i))
		peers = append(peers, id)
		ep := simnet.NewEndpoint(id, 1<<14)
		wifi.Join(ep)
		recv := broadcast.NewReceiver(storage.New())
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case m := <-ep.Inbox():
					switch p := m.Payload.(type) {
					case broadcast.BlockMsg:
						recv.OnBlock(p)
					case broadcast.FillMsg:
						recv.OnFill(p)
					case broadcast.QueryMsg:
						wifi.Respond(m, id, simnet.ClassBitmap, broadcast.BitmapWireBytes(p.Total), recv.Bitmap(p))
					}
				case <-stop:
					return
				}
			}
		}()
	}
	var simMs []float64
	for v := uint64(1); v <= 5; v++ {
		blob := &checkpoint.Blob{Slot: "s", Version: v, Size: blobBytes, Ops: map[string][]byte{}}
		t, simStart := now(), clk.Now()
		broadcast.Disseminate(wifi, clk, "s", peers, blob, broadcast.Config{BlockSize: 1024})
		rec.call("Disseminate", t, 0)
		simMs = append(simMs, float64(clk.Now()-simStart)/1e6)
	}
	close(stop)
	for range peers {
		<-done
	}
	l["broadcast.disseminate_sim_ms_per_mb"] = median(simMs) / (float64(blobBytes) / (1 << 20))
}

// microBaseline chains the workload's own operators by direct operator.Run
// calls in this goroutine: the throughput the region's queues, batching and
// network model are measured against (region.efficiency_vs_inline).
func microBaseline(shape microShape, rec *recorder, l ledger) {
	p, err := shape.pipeline()
	if err != nil {
		return
	}
	g, reg := p.Graph(), p.Registry()
	ops := make(map[string]operator.Operator)
	for _, id := range g.Operators() {
		ops[id] = reg.New(id)
	}
	src := g.Sources()[0]
	var delivered int
	// run pushes one tuple through op and on to whatever it emits to; a
	// keyed fan-out edge is followed to one instance only, as the region's
	// router would.
	var run func(id, from string, t *tuple.Tuple)
	run = func(id, from string, t *tuple.Tuple) {
		outs, err := operator.Run(ops[id], from, t)
		if err != nil {
			panic(err)
		}
		down := g.Downstream(id)
		for _, o := range outs {
			switch {
			case len(down) == 0:
				delivered++
			case o.To != "":
				run(o.To, id, o.T)
			case len(down) > 1:
				run(down[int(o.T.Kind[0])%len(down)], id, o.T)
			default:
				run(down[0], id, o.T)
			}
		}
	}
	t := shapeTuple(shape)
	ns, _ := timeIt(rec, "operator.Run chain", func(n int) {
		for i := 0; i < n; i++ {
			run(src, "", t)
		}
	})
	if delivered > 0 && ns > 0 {
		l["baseline.single_thread_tps"] = 1e9 / ns
	}
}
