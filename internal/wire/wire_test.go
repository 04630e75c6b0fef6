package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

func sampleTuple() *tuple.Tuple {
	return &tuple.Tuple{
		Seq: 42, Source: "src", Kind: "image",
		Created: 1500 * time.Millisecond, Size: 120 << 10,
		Replay: true, Value: 3.75,
	}
}

func sampleStream() *Stream {
	return &Stream{
		FromSlot: "s1", FromOp: "src", ToSlot: "s2", ToOp: "win",
		EdgeSeq: 7, TraceID: 43, TraceSeq: 2,
		Item: tuple.DataItem(sampleTuple()),
	}
}

func sampleBatch() *Batch {
	b := &Batch{ToSlot: "s2"}
	for i := 0; i < 3; i++ {
		m := *sampleStream()
		m.EdgeSeq = uint64(i + 1)
		b.Msgs = append(b.Msgs, m)
	}
	b.Msgs = append(b.Msgs, Stream{
		FromSlot: "s1", FromOp: "src", ToSlot: "s2", ToOp: "win",
		EdgeSeq: 4,
		Item:    tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerToken, Version: 9}),
	})
	// After the marker: a second edge into the slot (names change
	// mid-batch, untraced), then a message with empty names.
	other := &tuple.Tuple{Seq: 1, Source: "gps", Kind: "image", Size: 16, Value: []byte("fix")}
	b.Msgs = append(b.Msgs,
		Stream{FromSlot: "s0", FromOp: "gps", ToSlot: "s2", ToOp: "join", EdgeSeq: 1, Item: tuple.DataItem(other)},
		Stream{EdgeSeq: 2, TraceSeq: 1, Item: tuple.DataItem(&tuple.Tuple{Seq: 2})})
	return b
}

func sampleBlob(t *testing.T) *checkpoint.Blob {
	t.Helper()
	return &checkpoint.Blob{
		Slot: "s2", Version: 5, Base: 4,
		Ops:      map[string][]byte{"win": {1, 2, 3}, "agg": {9}},
		DeltaOps: map[string]bool{"win": true, "agg": false},
		Runtime:  []byte{0xAA, 0xBB},
		Size:     321, FullSize: 654, CRC: 0xDEADBEEF,
	}
}

// frameCase is one (kind, encode, size) pair; the parity test pins the
// size estimate of every message kind against the bytes its encoder
// actually produces, so modelled accounting cannot drift from the codec.
type frameCase struct {
	name   string
	size   func() (int, error)
	encode func(dst []byte) ([]byte, error)
	decode func(frame []byte) (interface{}, error)
}

func frameCases(t *testing.T) []frameCase {
	stream := sampleStream()
	batch := sampleBatch()
	pres := &preserve{Version: 3, Source: "src", T: sampleTuple()}
	cmd := &Command{Op: 6, Version: 11, Epoch: 2, Target: "phone-3", Slot: "s2"}
	rep := &Report{Type: 1, Phone: "phone-3", Slot: "s2", Version: 11,
		Epoch: 2, Holders: []simnet.NodeID{"phone-5", "phone-6"}, Observed: "phone-9", Err: "late"}
	rt := &Runtime{
		OutSeq:     map[string]uint64{"s2": 40, "s3": 41},
		InHW:       map[string]uint64{"s1": 39},
		LogVersion: 5,
	}
	blob := sampleBlob(t)
	chunk := &ckptChunk{Slot: "s2", Version: 5, Index: 1, Total: 4,
		CRC: 77, Data: []byte("chunk-bytes")}
	trunc := &truncate{Downstream: "s3", Upto: 88}
	resend := &resend{Downstream: "s3", After: 12}
	fetch := &fetchBlob{Slot: "s2", Version: 5}
	hello := &Hello{ID: "w1", Addr: "127.0.0.1:7402"}
	assign := &Assign{
		Lead: "lead", Seed: -3, Tuples: 500, TokenEvery: 100, SampleEvery: 10,
		Stages: []AssignStage{
			{Slot: "s1", Op: "pass", Host: "lead"},
			{Slot: "s2", Op: "window", Host: "w1"},
		},
		Peers: []AssignPeer{{ID: "w1", Addr: "127.0.0.1:7402"}},
	}
	sink := sampleTuple()
	spans := &SpanDump{
		From: "w1",
		Spans: []obs.Span{
			{Trace: 5, Seq: 0, Kind: obs.SpanIngest, Node: "w1", Slot: "s0", Op: "src", At: 1000},
			{Trace: 5, Seq: 1, Kind: obs.SpanOp, Node: "w1", Slot: "s0", Op: "pass", At: 1500},
		},
	}

	wrap := func(f func(dst []byte) []byte) func([]byte) ([]byte, error) {
		return func(dst []byte) ([]byte, error) { return f(dst), nil }
	}
	wrapSize := func(n int) func() (int, error) {
		return func() (int, error) { return n, nil }
	}
	return []frameCase{
		{"stream", func() (int, error) { return SizeStream(stream) },
			func(d []byte) ([]byte, error) { return AppendStream(d, stream) },
			func(f []byte) (interface{}, error) { return DecodeStream(f) }},
		{"batch", func() (int, error) { return SizeBatch(batch) },
			func(d []byte) ([]byte, error) { return AppendBatch(d, batch) },
			func(f []byte) (interface{}, error) { return DecodeBatch(f) }},
		{"preserve", func() (int, error) { return SizePreserve(pres) },
			func(d []byte) ([]byte, error) { return AppendPreserve(d, pres) },
			func(f []byte) (interface{}, error) { return decodePreserve(f) }},
		{"command", wrapSize(SizeCommand(cmd)),
			wrap(func(d []byte) []byte { return AppendCommand(d, cmd) }),
			func(f []byte) (interface{}, error) { return DecodeCommand(f) }},
		{"report", wrapSize(SizeReport(rep)),
			wrap(func(d []byte) []byte { return AppendReport(d, rep) }),
			func(f []byte) (interface{}, error) { return DecodeReport(f) }},
		{"runtime", wrapSize(SizeRuntime(rt)),
			wrap(func(d []byte) []byte { return AppendRuntime(d, rt) }),
			func(f []byte) (interface{}, error) { return DecodeRuntime(f) }},
		{"blob", wrapSize(SizeBlob(blob)),
			wrap(func(d []byte) []byte { return AppendBlob(d, blob) }),
			func(f []byte) (interface{}, error) { return DecodeBlob(f) }},
		{"ckpt-chunk", wrapSize(SizeCkptChunk(chunk)),
			wrap(func(d []byte) []byte { return AppendCkptChunk(d, chunk) }),
			func(f []byte) (interface{}, error) { return decodeCkptChunk(f) }},
		{"truncate", wrapSize(SizeTruncate(trunc)),
			wrap(func(d []byte) []byte { return AppendTruncate(d, trunc) }),
			func(f []byte) (interface{}, error) { return decodeTruncate(f) }},
		{"resend", wrapSize(SizeResend(resend)),
			wrap(func(d []byte) []byte { return AppendResend(d, resend) }),
			func(f []byte) (interface{}, error) { return decodeResend(f) }},
		{"fetch-blob", wrapSize(SizeFetchBlob(fetch)),
			wrap(func(d []byte) []byte { return AppendFetchBlob(d, fetch) }),
			func(f []byte) (interface{}, error) { return decodeFetchBlob(f) }},
		{"hello", wrapSize(SizeHello(hello)),
			wrap(func(d []byte) []byte { return AppendHello(d, hello) }),
			func(f []byte) (interface{}, error) { return DecodeHello(f) }},
		{"assign", wrapSize(SizeAssign(assign)),
			wrap(func(d []byte) []byte { return AppendAssign(d, assign) }),
			func(f []byte) (interface{}, error) { return DecodeAssign(f) }},
		{"sink-out", func() (int, error) { return SizeSinkOut(sink) },
			func(d []byte) ([]byte, error) { return AppendSinkOut(d, sink) },
			func(f []byte) (interface{}, error) { return decodeSinkOut(f) }},
		{"spans", wrapSize(SizeSpans(spans)),
			wrap(func(d []byte) []byte { return AppendSpans(d, spans) }),
			func(f []byte) (interface{}, error) { return DecodeSpans(f) }},
	}
}

// TestWireSizeParity pins the SizeX estimate of every message kind against
// the actual encoded frame bytes, so any accounting derived from estimates
// (simnet airtime, buffer presizing) cannot silently drift from the codec.
func TestWireSizeParity(t *testing.T) {
	for _, c := range frameCases(t) {
		frame, err := c.encode(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		want, err := c.size()
		if err != nil {
			t.Fatalf("%s: size: %v", c.name, err)
		}
		if want != len(frame) {
			t.Errorf("%s: Size estimate %d != encoded %d bytes", c.name, want, len(frame))
		}
	}
}

// TestRoundTripAllKinds checks every kind decodes (via its own decoder and
// DecodeAny) without error, consuming the whole frame.
func TestRoundTripAllKinds(t *testing.T) {
	for _, c := range frameCases(t) {
		frame, err := c.encode(nil)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if _, err := c.decode(frame); err != nil {
			t.Errorf("%s: decode: %v", c.name, err)
		}
		if _, err := DecodeAny(frame); err != nil {
			t.Errorf("%s: DecodeAny: %v", c.name, err)
		}
		// Any truncation of a valid frame must error, never panic.
		for cut := 0; cut < len(frame); cut++ {
			if _, err := DecodeAny(frame[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded without error", c.name, cut, len(frame))
			}
		}
		// Trailing garbage must be rejected too.
		if _, err := DecodeAny(append(append([]byte(nil), frame...), 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", c.name)
		}
	}
}

// A report round-trips field for field, the holders a dist-n persisted
// report names included, in order; a report that names none decodes with
// none.
func TestReportRoundTripHolders(t *testing.T) {
	for _, in := range []Report{
		{Type: 2, Phone: "r1/p3", Slot: "n5", Version: 4, Holders: []simnet.NodeID{"r1/p6", "r1/p7"}},
		{Type: 1, Phone: "r1/p3", Slot: "n5", Version: 4, Observed: "r1/p4", Err: "late"},
	} {
		frame := AppendReport(nil, &in)
		if len(frame) != SizeReport(&in) {
			t.Fatalf("SizeReport = %d, encoded %d", SizeReport(&in), len(frame))
		}
		out, err := DecodeReport(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("decoded %+v\nwant    %+v", out, in)
		}
	}
}

func TestStreamRoundTripValues(t *testing.T) {
	in := sampleStream()
	frame, err := AppendStream(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStream(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out.FromSlot != in.FromSlot || out.ToOp != in.ToOp || out.EdgeSeq != in.EdgeSeq {
		t.Fatalf("header mismatch: %+v", out)
	}
	got, want := out.Item.Tuple, in.Item.Tuple
	if got == nil || *got != *want {
		t.Fatalf("tuple mismatch: got %+v want %+v", got, want)
	}
}

func TestValueRoundTrip(t *testing.T) {
	cases := []struct {
		in   interface{}
		want interface{}
	}{
		{nil, nil},
		{true, true},
		{false, false},
		{int(-7), int64(-7)},
		{int32(5), int64(5)},
		{int64(1 << 40), int64(1 << 40)},
		{uint(9), uint64(9)},
		{uint64(1 << 50), uint64(1 << 50)},
		{3.5, 3.5},
		{"hello", "hello"},
		{[]byte{1, 2, 3}, []byte{1, 2, 3}},
	}
	for _, c := range cases {
		tp := sampleTuple()
		tp.Value = c.in
		frame, err := AppendSinkOut(nil, tp)
		if err != nil {
			t.Fatalf("%T: %v", c.in, err)
		}
		out, err := decodeSinkOut(frame)
		if err != nil {
			t.Fatalf("%T: %v", c.in, err)
		}
		if !reflect.DeepEqual(out.Value, c.want) {
			t.Errorf("%T: got %v (%T), want %v (%T)", c.in, out.Value, out.Value, c.want, c.want)
		}
	}
	// Unsupported payloads must fail encode, not corrupt the frame.
	tp := sampleTuple()
	tp.Value = struct{ X int }{1}
	if _, err := AppendSinkOut(nil, tp); err == nil {
		t.Fatal("struct payload encoded without error")
	}
}

// TestDeterministicEncode re-encodes map-backed structures many times; the
// bytes must never vary, because checkpoint blob parity across transport
// backends is asserted as byte equality.
func TestDeterministicEncode(t *testing.T) {
	rt := &Runtime{
		OutSeq:     map[string]uint64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
		InHW:       map[string]uint64{"x": 7, "y": 8, "z": 9},
		LogVersion: 3,
	}
	blob := sampleBlob(t)
	first := AppendRuntime(nil, rt)
	firstBlob := AppendBlob(nil, blob)
	for i := 0; i < 50; i++ {
		if got := AppendRuntime(nil, rt); !bytes.Equal(got, first) {
			t.Fatal("runtime encoding varied across runs")
		}
		if got := AppendBlob(nil, blob); !bytes.Equal(got, firstBlob) {
			t.Fatal("blob encoding varied across runs")
		}
	}
}

func TestRuntimeRoundTrip(t *testing.T) {
	rt := &Runtime{
		OutSeq:     map[string]uint64{"s2": 40, "s3": 41},
		InHW:       map[string]uint64{"s1": 39},
		LogVersion: 5,
	}
	out, err := DecodeRuntime(AppendRuntime(nil, rt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.OutSeq, rt.OutSeq) || !reflect.DeepEqual(out.InHW, rt.InHW) || out.LogVersion != rt.LogVersion {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// Empty maps decode non-nil, matching fresh node runtime state.
	out, err = DecodeRuntime(AppendRuntime(nil, &Runtime{}))
	if err != nil {
		t.Fatal(err)
	}
	if out.OutSeq == nil || out.InHW == nil {
		t.Fatal("empty runtime decoded with nil maps")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	in := sampleBlob(t)
	out, err := DecodeBlob(AppendBlob(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Slot != in.Slot || out.Version != in.Version || out.Base != in.Base ||
		out.Size != in.Size || out.FullSize != in.FullSize || out.CRC != in.CRC {
		t.Fatalf("header mismatch: %+v", out)
	}
	if !reflect.DeepEqual(out.Ops, in.Ops) {
		t.Fatalf("ops mismatch: %v", out.Ops)
	}
	// Only true markers survive the wire; that is all MaterializeChain reads.
	if !out.DeltaOps["win"] || out.DeltaOps["agg"] {
		t.Fatalf("delta markers mismatch: %v", out.DeltaOps)
	}
	if !bytes.Equal(out.Runtime, in.Runtime) {
		t.Fatalf("runtime mismatch: %x", out.Runtime)
	}
}

// TestBlobRealParity encodes a blob built by the real checkpoint builder
// and verifies the decoded copy still passes CRC verification — the
// wire format preserves exactly the bytes the CRC covers.
func TestBlobRealParity(t *testing.T) {
	blob, err := checkpoint.BuildBlob("s1", 3, nil, AppendRuntime(nil, &Runtime{
		OutSeq: map[string]uint64{"s2": 10}, InHW: map[string]uint64{}, LogVersion: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBlob(AppendBlob(nil, blob))
	if err != nil {
		t.Fatal(err)
	}
	if !out.VerifyCRC() {
		t.Fatal("decoded blob failed CRC verification")
	}
	if !bytes.Equal(AppendBlob(nil, out), AppendBlob(nil, blob)) {
		t.Fatal("re-encoded blob differs from original encoding")
	}
}

// TestEncodeZeroAlloc pins the hot-path encoders at zero allocations per
// op once the destination buffer has grown to capacity.
func TestEncodeZeroAlloc(t *testing.T) {
	stream := sampleStream()
	batch := sampleBatch()
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf = buf[:0]
		if buf, err = AppendStream(buf, stream); err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		if buf, err = AppendBatch(buf, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode allocated %.1f/op, want 0", allocs)
	}
}

// relayBatch is the shape socket-relay sends: n tuples of one edge with a
// 64 B payload each.
func relayBatch(n int) *Batch {
	b := &Batch{ToSlot: "r1"}
	for i := 0; i < n; i++ {
		b.Msgs = append(b.Msgs, Stream{
			FromSlot: "src", FromOp: "gen", ToSlot: "r1", ToOp: "fwd", EdgeSeq: uint64(i + 1),
			Item: tuple.DataItem(&tuple.Tuple{Seq: uint64(i + 1), Source: "src", Kind: "relay",
				Created: time.Second, Size: 64, Value: make([]byte, 64)}),
		})
	}
	return b
}

// TestDecodeBatchAllocs pins what decoding a 16-tuple frame of []byte
// values allocates once its names are in the intern table: the message
// slice, one tuple array and one value array. Copying the first message's
// names out of every frame made it 9; boxing each value on its own, 24.
func TestDecodeBatchAllocs(t *testing.T) {
	batch := relayBatch(16)
	frame, err := AppendBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(len(frame)) / 16; per > 110 {
		t.Errorf("frame is %.1f B/tuple, want <= 110", per)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBatch(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("DecodeBatch allocated %.1f per 16-tuple frame, want <= 3", allocs)
	}
	buf := make([]byte, 0, len(frame))
	if allocs := testing.AllocsPerRun(200, func() { buf, _ = AppendBatch(buf[:0], batch) }); allocs != 0 {
		t.Errorf("AppendBatch allocated %.1f/op, want 0", allocs)
	}
}

// randomBatch draws a batch whose names change, repeat and go empty
// mid-batch, with markers between tuples and traced and untraced messages.
func randomBatch(rng *rand.Rand, n int) *Batch {
	names := []string{"", "a", "b", "slot-with-a-long-name"}
	name := func() string { return names[rng.Intn(len(names))] }
	values := []interface{}{nil, true, int64(-3), uint64(9), 2.5, "str", []byte{1, 2}, []byte{}}
	b := &Batch{ToSlot: name()}
	var m Stream
	for i := 0; i < n; i++ {
		if i == 0 || rng.Intn(4) == 0 { // mostly one edge, as real batches are
			m = Stream{FromSlot: name(), FromOp: name(), ToSlot: name(), ToOp: name()}
		}
		m.EdgeSeq = rng.Uint64()
		m.TraceID, m.TraceSeq = 0, 0
		switch rng.Intn(4) {
		case 0:
			m.TraceID, m.TraceSeq = rng.Uint64()|1, rng.Uint32()
		case 1:
			m.TraceSeq = rng.Uint32() | 1
		}
		if rng.Intn(5) == 0 {
			m.Item = tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerKind(rng.Intn(2)), Version: rng.Uint64()})
		} else {
			m.Item = tuple.DataItem(&tuple.Tuple{
				Seq: rng.Uint64(), Source: names[rng.Intn(2)], Kind: names[rng.Intn(3)],
				Created: time.Duration(rng.Int63()), Size: rng.Intn(1 << 20),
				Replay: rng.Intn(2) == 0, Value: values[rng.Intn(len(values))],
			})
		}
		b.Msgs = append(b.Msgs, m)
	}
	return b
}

// TestBatchRoundTripProperty round-trips seeded random batches: the decoded
// Batch equals the encoded one, SizeBatch is exact, and re-encoding the
// decoded value reproduces the frame byte for byte.
func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sizes := []int{0, 1, 64}
	for round := 0; round < 300; round++ {
		n := rng.Intn(40)
		if round < len(sizes) {
			n = sizes[round]
		}
		in := randomBatch(rng, n)
		frame, err := AppendBatch(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if size, err := SizeBatch(in); err != nil || size != len(frame) {
			t.Fatalf("round %d: SizeBatch = %d, %v; encoded %d", round, size, err, len(frame))
		}
		out, err := DecodeBatch(frame)
		if err != nil {
			t.Fatalf("round %d (n=%d): decode: %v", round, n, err)
		}
		if !reflect.DeepEqual(out, *in) {
			t.Fatalf("round %d: decoded batch differs:\n got %+v\nwant %+v", round, out, *in)
		}
		if re, err := AppendBatch(nil, &out); err != nil || !bytes.Equal(re, frame) {
			t.Fatalf("round %d: re-encode differs (err %v)", round, err)
		}
	}
}

// TestBatchRejectsNonCanonical hand-builds frames that say the same thing
// as a canonical frame in different bytes, or set bits that mean nothing;
// each must be rejected, so a batch has exactly one encoding. The same
// holds for the sorted key lists of runtime and blob frames: a repeated or
// out-of-order key would decode to a map that re-encodes differently.
// Frames of the retired kinds are malformed too, whatever their body.
func TestBatchRejectsNonCanonical(t *testing.T) {
	str := func(s string) []byte { return appendString(nil, s) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	header := func(n byte) []byte { return cat([]byte{byte(KindBatch)}, str("s2"), []byte{0, 0, 0, n}) }
	seq := make([]byte, 8)                               // an EdgeSeq, Seq or marker Version of 0
	tail := cat(seq, seq, []byte{0, valNil})             // Created, Size, Replay, Value
	names := cat(str("a"), str("x"), str("b"), str("y")) // FromSlot, FromOp, ToSlot, ToOp
	const allSame = sameFromSlot | sameFromOp | sameToSlot | sameToOp | sameSource | sameKind
	first := cat([]byte{untraced}, names, seq, []byte{itemTuple}, seq, str("s"), str("k"), tail)
	next := func(flags byte, lits ...[]byte) []byte { // a second tuple message, all names unchanged but lits
		return cat([]byte{flags}, cat(lits...), seq, []byte{itemTuple}, seq, tail)
	}
	marker := func(flags byte) []byte { return cat([]byte{flags}, seq, []byte{itemMarker, 0}, seq) }

	if _, err := DecodeBatch(cat(header(2), first, next(allSame|untraced))); err != nil {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	if _, err := DecodeBatch(cat(header(2), first, marker(allSame&^(sameSource|sameKind)|untraced))); err != nil {
		t.Fatalf("canonical marker rejected: %v", err)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"literal FromSlot equal to predecessor", cat(header(2), first, next(allSame&^sameFromSlot|untraced, str("a")))},
		{"literal ToOp equal to predecessor", cat(header(2), first, next(allSame&^sameToOp|untraced, str("y")))},
		{"first ToSlot literal equal to the batch header's",
			cat(header(1), []byte{untraced}, str("a"), str("x"), str("s2"), str("y"), seq, []byte{itemTuple}, seq, str("s"), str("k"), tail)},
		{"empty literal in the first message",
			cat(header(1), []byte{untraced}, str(""), str("x"), str("b"), str("y"), seq, []byte{itemTuple}, seq, str("s"), str("k"), tail)},
		{"literal Source equal to predecessor",
			cat(header(2), first, []byte{allSame&^sameSource | untraced}, seq, []byte{itemTuple}, seq, str("s"), tail)},
		{"literal Kind equal to the tuple before a marker",
			cat(header(3), first, marker(allSame&^(sameSource|sameKind)|untraced),
				[]byte{allSame&^sameKind | untraced}, seq, []byte{itemTuple}, seq, str("k"), tail)},
		{"traced with a zero context", cat(header(2), first, []byte{allSame}, seq, seq, []byte{0, 0, 0, 0, itemTuple}, seq, tail)},
		{"reserved bit set", cat(header(2), first, next(allSame|untraced|flagsReserved))},
		{"Source bit on a marker", cat(header(2), first, marker(allSame&^sameKind|untraced))},
		{"Kind bit on a marker", cat(header(2), first, marker(allSame&^sameSource|untraced))},
		{"unknown item flag", cat(header(2), first, []byte{allSame | untraced}, seq, []byte{2}, seq, tail)},
		{"count larger than the frame could hold", cat(header(200), first)},
	}
	u32 := func(v uint32) []byte { return appendU32(nil, v) }
	runtime := func(out, in []byte) []byte { return cat([]byte{byte(kindRuntime)}, seq, out, in) }
	counter := func(k string) []byte { return cat(str(k), seq) }
	blob := func(ops, deltas []byte) []byte {
		return cat([]byte{byte(KindBlob)}, str("s2"), seq, seq, seq, seq, u32(0), appendBytes(nil, nil), ops, deltas)
	}
	op := func(id string) []byte { return cat(str(id), appendBytes(nil, []byte{1})) }
	if _, err := DecodeRuntime(runtime(cat(u32(2), counter("a"), counter("b")), cat(u32(1), counter("a")))); err != nil {
		t.Fatalf("canonical runtime frame rejected: %v", err)
	}
	if _, err := DecodeBlob(blob(cat(u32(2), op("a"), op("b")), cat(u32(2), str("a"), str("b")))); err != nil {
		t.Fatalf("canonical blob frame rejected: %v", err)
	}
	cases = append(cases, []struct {
		name  string
		frame []byte
	}{
		{"runtime OutSeq key repeated", runtime(cat(u32(2), counter("a"), counter("a")), u32(0))},
		{"runtime InHW keys unsorted", runtime(u32(0), cat(u32(2), counter("b"), counter("a")))},
		{"blob Ops id repeated", blob(cat(u32(2), op("a"), op("a")), u32(0))},
		{"blob Ops ids unsorted", blob(cat(u32(2), op("b"), op("a")), u32(0))},
		{"blob DeltaOps id repeated", blob(cat(u32(1), op("a")), cat(u32(2), str("a"), str("a")))},
		{"blob DeltaOps ids unsorted", blob(cat(u32(2), op("a"), op("b")), cat(u32(2), str("b"), str("a")))},
	}...)
	for _, f := range retiredFrames() {
		cases = append(cases, struct {
			name  string
			frame []byte
		}{fmt.Sprintf("retired kind %d", f[0]), f})
	}
	for _, c := range cases {
		if _, err := DecodeAny(c.frame); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
		}
	}
}

// retiredFrames holds one frame for each retired kind (16–19: the gossip
// digest and delta, the region rollup, the cross-region envelope), each
// with a body that kind's decoder accepted while it existed.
func retiredFrames() [][]byte {
	str := func(s string) []byte { return appendString(nil, s) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	u32 := func(v uint32) []byte { return appendU32(nil, v) }
	u64 := func(v uint64) []byte { return appendU64(nil, v) }
	return [][]byte{
		cat([]byte{16}, str("n1"), []byte{0}, str(""), str(""), u32(1), str("n0"), u64(3)),
		cat([]byte{17}, str("n0"), u32(1), str("n0"), u64(1), []byte{1}, str("member"), appendBytes(nil, []byte{7})),
		cat([]byte{18}, str("r"), str("n1"), u64(1), u64(8), u64(1), u64(2), u64(1), u64(40), u64(512)),
		cat([]byte{19}, str("a"), str("b"), str("s"), u64(2), appendBytes(nil, []byte("p"))),
	}
}

func TestFrameKind(t *testing.T) {
	if FrameKind(nil) != kindInvalid {
		t.Fatal("empty frame has a kind")
	}
	if FrameKind([]byte{0xFE}) != kindInvalid {
		t.Fatal("unknown kind byte accepted")
	}
	frame, _ := AppendStream(nil, sampleStream())
	if FrameKind(frame) != KindStream {
		t.Fatal("stream frame misidentified")
	}
	if got := fmt.Sprint(KindStream); got != "stream" {
		t.Fatalf("kind name: %q", got)
	}
}
