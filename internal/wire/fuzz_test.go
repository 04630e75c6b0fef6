package wire

import (
	"testing"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// fuzzSeeds returns one valid encoded frame per kind, and one frame per
// retired kind, so the fuzzer starts from structurally interesting corpora
// instead of pure noise.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	add := func(frame []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, frame)
	}
	tp := &tuple.Tuple{Seq: 1, Source: "s", Kind: "k", Size: 64, Value: 1.5}
	add(AppendStream(nil, &Stream{
		FromSlot: "a", FromOp: "x", ToSlot: "b", ToOp: "y",
		EdgeSeq: 3, Item: tuple.DataItem(tp),
	}))
	add(AppendBatch(nil, &Batch{ToSlot: "b", Msgs: []Stream{{
		FromSlot: "a", FromOp: "x", ToSlot: "b", ToOp: "y", EdgeSeq: 1,
		Item: tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerToken, Version: 2}),
	}}}))
	add(AppendPreserve(nil, &preserve{Version: 1, Source: "s", T: tp}))
	add(AppendCommand(nil, &Command{Op: 2, Version: 1, Target: "n1", Slot: "a"}), nil)
	add(AppendReport(nil, &Report{Type: 1, Phone: "n1", Slot: "a", Version: 1}), nil)
	add(AppendReport(nil, &Report{Type: 2, Phone: "n1", Slot: "a", Version: 1, Holders: []simnet.NodeID{"n2", "n3"}}), nil)
	add(AppendRuntime(nil, &Runtime{
		OutSeq: map[string]uint64{"b": 4}, InHW: map[string]uint64{"a": 3}, LogVersion: 1,
	}), nil)
	add(AppendBlob(nil, &checkpoint.Blob{
		Slot: "a", Version: 2, Base: 1,
		Ops: map[string][]byte{"x": {1}}, DeltaOps: map[string]bool{"x": true},
		Runtime: []byte{9}, Size: 10, FullSize: 20, CRC: 3,
	}), nil)
	add(AppendCkptChunk(nil, &ckptChunk{Slot: "a", Version: 1, Index: 0,
		Total: 2, CRC: 9, Data: []byte("xy")}), nil)
	add(AppendTruncate(nil, &truncate{Downstream: "b", Upto: 5}), nil)
	add(AppendResend(nil, &resend{Downstream: "b", After: 5}), nil)
	add(AppendFetchBlob(nil, &fetchBlob{Slot: "a", Version: 1}), nil)
	add(AppendHello(nil, &Hello{ID: "n1", Addr: "127.0.0.1:1"}), nil)
	add(AppendAssign(nil, &Assign{Lead: "n0", Seed: 1, Tuples: 10, TokenEvery: 5,
		Stages: []AssignStage{{Slot: "a", Op: "pass", Host: "n0"}},
		Peers:  []AssignPeer{{ID: "n1", Addr: "127.0.0.1:1"}}}), nil)
	add(AppendSinkOut(nil, tp))
	add(AppendSpans(nil, &SpanDump{From: "n1", Spans: []obs.Span{
		{Trace: 1, Seq: 0, Kind: obs.SpanIngest, Node: "n1", Slot: "a", Op: "x", At: 10},
	}}), nil)
	// One frame per retired kind, each of which DecodeAny must reject.
	seeds = append(seeds, retiredFrames()...)
	return seeds
}

// FuzzDecodeAny feeds arbitrary bytes through the full decode dispatch.
// The invariant under fuzz: decoding never panics and never over-reads;
// malformed or truncated frames surface as errors. Valid runtime and blob
// frames, whose maps encode as sorted key lists, must re-encode to
// identical bytes (stream and batch frames have fuzzers of their own).
func FuzzDecodeAny(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindBatch), 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeAny(data)
		if err != nil {
			return
		}
		var re []byte
		switch v := v.(type) {
		case nil:
			t.Fatalf("kind %s decoded to nil without error", FrameKind(data))
		case Runtime:
			re = AppendRuntime(nil, &v)
		case *checkpoint.Blob:
			re = AppendBlob(nil, v)
		default:
			return
		}
		if string(re) != string(data) {
			t.Fatalf("%s decode/encode not canonical:\n in=%x\nout=%x", FrameKind(data), data, re)
		}
	})
}

// FuzzDecodeStream exercises the deepest decoder (nested tuple values)
// directly, so the fuzzer spends its budget on the richest frame grammar.
func FuzzDecodeStream(f *testing.F) {
	tp := &tuple.Tuple{Seq: 1, Source: "s", Kind: "k", Size: 64, Value: []byte{1, 2}}
	frame, err := AppendStream(nil, &Stream{
		FromSlot: "a", FromOp: "x", ToSlot: "b", ToOp: "y",
		EdgeSeq: 3, Item: tuple.DataItem(tp),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeStream(data)
		if err != nil {
			return
		}
		if m.Item.Tuple == nil && m.Item.Marker == nil {
			t.Fatal("decoded stream with empty item")
		}
		// A frame that decodes must re-encode to identical bytes: the
		// format has exactly one encoding per logical message.
		re, err := AppendStream(nil, &m)
		if err != nil {
			t.Fatalf("re-encode of valid frame failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("decode/encode not canonical:\n in=%x\nout=%x", data, re)
		}
	})
}

// FuzzDecodeBatch exercises the delta-coded batch grammar directly. A batch
// has exactly one encoding, so any frame that decodes must re-encode to
// identical bytes at exactly the size SizeBatch reports.
func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	for _, b := range []*Batch{sampleBatch(), relayBatch(3), {ToSlot: "b"}} {
		frame, err := AppendBatch(nil, b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		if err != nil {
			return
		}
		re, err := AppendBatch(nil, &b)
		if err != nil {
			t.Fatalf("re-encode of valid frame failed: %v", err)
		}
		if string(re) != string(data) {
			t.Fatalf("decode/encode not canonical:\n in=%x\nout=%x", data, re)
		}
		if n, err := SizeBatch(&b); err != nil || n != len(data) {
			t.Fatalf("SizeBatch = %d, %v; frame is %d bytes", n, err, len(data))
		}
	})
}
