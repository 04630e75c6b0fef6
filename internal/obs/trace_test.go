package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(0)
	if _, ok := tr.Sample(0); ok {
		t.Fatal("tracing off must never sample")
	}
	tr.SetSampleEvery(10)
	hits := 0
	for seq := uint64(0); seq < 100; seq++ {
		if tc, ok := tr.Sample(seq); ok {
			hits++
			if tc.ID != seq+1 {
				t.Fatalf("trace ID %d for seq %d, want seq+1", tc.ID, seq)
			}
		}
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 100 at every=10", hits)
	}
	var nilT *Tracer
	if _, ok := nilT.Sample(0); ok {
		t.Fatal("nil tracer sampled")
	}
	nilT.Record(&SpanCtx{ID: 1}, SpanOp, "n", "s", "o", 0) // must not panic
}

func TestWaterfallReconstruction(t *testing.T) {
	tr := NewTracer(1)
	tc, ok := tr.Sample(4)
	if !ok {
		t.Fatal("every=1 must sample")
	}
	tr.Record(&tc, SpanIngest, "w1", "s0", "src", 100)
	tr.Record(&tc, SpanOp, "w1", "s0", "pass", 150)
	tr.Record(&tc, SpanEmit, "w1", "s0", "pass", 160)
	// Deliberately absorb the remote spans out of order: reconstruction
	// sorts by span seq, not arrival.
	remote := []Span{
		{Trace: tc.ID, Seq: 4, Kind: SpanSink, Node: "w2", Slot: "s1", Op: "agg", At: 90},
		{Trace: tc.ID, Seq: 3, Kind: SpanRecv, Node: "w2", Slot: "s1", Op: "agg", At: 40},
	}
	tr.Absorb(remote)
	wfs := Waterfalls(tr.Spans())
	if len(wfs) != 1 {
		t.Fatalf("waterfalls = %d, want 1", len(wfs))
	}
	w := wfs[0]
	if w.Trace != 5 {
		t.Fatalf("trace id = %d, want 5", w.Trace)
	}
	want := "ingest@s0/src op@s0/pass emit@s0/pass recv@s1/agg sink@s1/agg"
	if got := w.Structure(); got != want {
		t.Fatalf("structure = %q, want %q", got, want)
	}
	// Deltas: same-node hops get exact deltas, the cross-node hop gets 0.
	if w.Hops[1].Delta != 50 || w.Hops[2].Delta != 10 {
		t.Fatalf("same-node deltas = %d,%d want 50,10", w.Hops[1].Delta, w.Hops[2].Delta)
	}
	if w.Hops[3].Delta != 0 {
		t.Fatalf("cross-node delta = %d, want 0 (clocks differ)", w.Hops[3].Delta)
	}
	if w.Hops[4].Delta != 50 {
		t.Fatalf("sink delta = %d, want 50", w.Hops[4].Delta)
	}
	if !strings.Contains(w.Render(), "trace 5:") {
		t.Fatalf("render missing header: %q", w.Render())
	}
}

func TestTracerBoundedBuffer(t *testing.T) {
	tr := &Tracer{cap: 4}
	tr.SetSampleEvery(1)
	tc := SpanCtx{ID: 1}
	for i := 0; i < 10; i++ {
		tr.Record(&tc, SpanOp, "n", "s", "o", int64(i))
	}
	if len(tr.Spans()) != 4 {
		t.Fatalf("buffer grew past cap: %d", len(tr.Spans()))
	}
	if tr.Drops() != 6 {
		t.Fatalf("drops = %d, want 6", tr.Drops())
	}
	tr.ResetSpans()
	if len(tr.Spans()) != 0 || tr.Drops() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestJournalRingAndJSONL(t *testing.T) {
	var nilJ *Journal
	nilJ.Emit(Event{Kind: "noop"}) // nil-safe
	if nilJ.Events() != nil || nilJ.emitted() != 0 {
		t.Fatal("nil journal not empty")
	}
	j := NewJournal(3)
	for i := 0; i < 5; i++ {
		j.Emit(Event{At: int64(i), Kind: "ckpt.begin", Version: uint64(i)})
	}
	evs := j.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	if evs[0].Version != 2 || evs[2].Version != 4 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if j.emitted() != 5 {
		t.Fatalf("total = %d, want 5", j.emitted())
	}
	var buf bytes.Buffer
	if err := j.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if e.Kind != "ckpt.begin" {
			t.Fatalf("kind = %q", e.Kind)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("JSONL lines = %d, want 3", lines)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	if r.Hist(OpLatency, "x") != nil || r.Hist(SinkLatency, "") != nil {
		t.Fatal("nil registry must yield nil histograms")
	}
	if r.Ops() != nil || r.Waits() != nil || r.Depths() != nil || r.families() != nil {
		t.Fatal("nil registry views must be nil")
	}
	if r.Merged(CkptPause).Count() != 0 {
		t.Fatal("nil registry must merge to an empty histogram")
	}
	r.Reset(SinkLatency) // no-op, no panic
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Hist(OpLatency, "agg").Observe(1500)
	reg.Hist(EdgeWait, "s0->s1").Observe(250)
	reg.Hist(EdgeDepth, "s0->s1").Observe(3)
	reg.Hist(SinkLatency, "").Observe(4000)
	reg.Hist(BatchMsgs, "").Observe(6)
	reg.Hist(BatchMsgs, "").Observe(10)
	reg.Hist(CkptPause, "n2").Observe(7000)
	reg.Hist(CkptPause, "n3").Observe(9000)
	reg.Hist(CkptDeltaBlob, "n2").Observe(512)
	reg.Hist(CkptFullBlob, "n3").Observe(4096)
	reg.Hist(CkptState, "n2").Observe(4096)
	reg.Journal.Emit(Event{Kind: "ckpt.seal", Version: 1})
	reg.Tracer.SetSampleEvery(1)
	tc, _ := reg.Tracer.Sample(0)
	reg.Tracer.Record(&tc, SpanIngest, "n", "s0", "src", 0)

	h := handler(reg, func() map[string]float64 {
		return map[string]float64{"ms_socket_redials_total": 2}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"ms_up 1",
		`ms_op_latency_ns_count{op="agg"} 1`,
		`ms_edge_wait_ns_count{edge="s0->s1"} 1`,
		`ms_edge_depth_max{edge="s0->s1"} 3`,
		// Region-wide families are unlabelled: one series each.
		"# TYPE ms_sink_latency_ns summary",
		"ms_sink_latency_ns_count 1",
		`ms_sink_latency_ns{quantile="0.5"} 4000`,
		"ms_batch_msgs_count 2",
		"ms_batch_msgs_sum 16",
		"ms_batch_msgs_max 10",
		// Checkpoint families are per slot.
		`ms_ckpt_pause_ns_count{slot="n2"} 1`,
		`ms_ckpt_pause_ns_max{slot="n3"} 9000`,
		`ms_ckpt_pause_ns{slot="n3",quantile="0.99"} 9000`,
		`ms_ckpt_delta_blob_bytes_sum{slot="n2"} 512`,
		`ms_ckpt_full_blob_bytes_sum{slot="n3"} 4096`,
		`ms_ckpt_state_bytes_count{slot="n2"} 1`,
		"ms_trace_spans 1",
		"ms_journal_events_total 1",
		"ms_socket_redials_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(get("/journal"), `"kind":"ckpt.seal"`) {
		t.Fatal("/journal missing event")
	}
	if !strings.Contains(get("/traces"), "trace 1:") {
		t.Fatal("/traces missing waterfall")
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), "") { // just must be 200
		t.Fatal("unreachable")
	}
}
