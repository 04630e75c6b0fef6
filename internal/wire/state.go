package wire

import (
	"sort"

	"mobistreams/internal/checkpoint"
)

// Runtime is the wire form of a node's checkpoint runtime state: the edge
// sequence counters and the preservation log version carried inside every
// checkpoint blob. Map entries encode in sorted key order, so the same
// logical state always produces the same bytes — the property checkpoint
// blob parity across transport backends rests on.
type Runtime struct {
	OutSeq     map[string]uint64
	InHW       map[string]uint64
	LogVersion uint64
}

// ckptChunk is one chunk of a chunked checkpoint blob transfer. Receivers
// recompute CRC from the blob identity they are assembling (see
// checkpoint.ChunkCRC), so a chunk spliced from another blob is rejected.
type ckptChunk struct {
	Slot    string
	Version uint64
	Index   int
	Total   int
	CRC     uint32
	Data    []byte
}

// SizeRuntime reports the exact frame size AppendRuntime will produce.
func SizeRuntime(rt *Runtime) int {
	total := 1 + 8 + 4 + 4
	for k := range rt.OutSeq {
		total += sizeString(k) + 8
	}
	for k := range rt.InHW {
		total += sizeString(k) + 8
	}
	return total
}

// AppendRuntime encodes a runtime state frame onto dst, deterministically.
func AppendRuntime(dst []byte, rt *Runtime) []byte {
	dst = appendU8(dst, byte(kindRuntime))
	dst = appendU64(dst, rt.LogVersion)
	dst = appendSortedU64Map(dst, rt.OutSeq)
	return appendSortedU64Map(dst, rt.InHW)
}

// DecodeRuntime decodes a runtime state frame. The maps are always
// non-nil, matching how the node seeds fresh runtime state.
func DecodeRuntime(frame []byte) (Runtime, error) {
	r := reader{b: frame}
	r.kind(kindRuntime)
	var rt Runtime
	rt.LogVersion = r.u64()
	rt.OutSeq = decodeU64Map(&r)
	rt.InHW = decodeU64Map(&r)
	return rt, r.done()
}

func appendSortedU64Map(dst []byte, m map[string]uint64) []byte {
	dst = appendU32(dst, uint32(len(m)))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendU64(dst, m[k])
	}
	return dst
}

func decodeU64Map(r *reader) map[string]uint64 {
	n := r.count(4 + 8)
	m := make(map[string]uint64, n)
	var k string
	for i := 0; i < n && r.err == nil; i++ {
		k = r.key(i, k)
		m[k] = r.u64()
	}
	return m
}

// key reads the i-th key of a sorted key list, whose previous key is prev.
// Encoders write keys sorted and unique, so a key that does not sort
// strictly after its predecessor is rejected: a map has exactly one
// encoding.
func (r *reader) key(i int, prev string) string {
	k := r.str()
	if r.err == nil && i > 0 && k <= prev {
		r.fail(errMalformed, "unsorted or repeated key")
	}
	return k
}

// SizeBlob reports the exact frame size AppendBlob will produce.
func SizeBlob(b *checkpoint.Blob) int {
	total := 1 + sizeString(b.Slot) + 8 + 8 + 8 + 8 + 4 +
		sizeBytes(b.Runtime) + 4 + 4
	for id, data := range b.Ops {
		total += sizeString(id) + sizeBytes(data)
	}
	for id, isDelta := range b.DeltaOps {
		if isDelta {
			total += sizeString(id)
		}
	}
	return total
}

// AppendBlob encodes a checkpoint blob frame onto dst, deterministically:
// operator entries in sorted ID order, delta markers as a sorted ID list.
func AppendBlob(dst []byte, b *checkpoint.Blob) []byte {
	dst = appendU8(dst, byte(KindBlob))
	dst = appendString(dst, b.Slot)
	dst = appendU64(dst, b.Version)
	dst = appendU64(dst, b.Base)
	dst = appendI64(dst, int64(b.Size))
	dst = appendI64(dst, int64(b.FullSize))
	dst = appendU32(dst, b.CRC)
	dst = appendBytes(dst, b.Runtime)

	ids := make([]string, 0, len(b.Ops))
	for id := range b.Ops {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendString(dst, id)
		dst = appendBytes(dst, b.Ops[id])
	}

	deltas := make([]string, 0, len(b.DeltaOps))
	for id, isDelta := range b.DeltaOps {
		if isDelta {
			deltas = append(deltas, id)
		}
	}
	sort.Strings(deltas)
	dst = appendU32(dst, uint32(len(deltas)))
	for _, id := range deltas {
		dst = appendString(dst, id)
	}
	return dst
}

// DecodeBlob decodes a checkpoint blob frame. Operator state and runtime
// bytes are zero-copy views into the frame: callers keeping the blob past
// the frame's lifetime must copy them.
func DecodeBlob(frame []byte) (*checkpoint.Blob, error) {
	r := reader{b: frame}
	r.kind(KindBlob)
	b := &checkpoint.Blob{}
	b.Slot = r.str()
	b.Version = r.u64()
	b.Base = r.u64()
	b.Size = int(r.i64())
	b.FullSize = int(r.i64())
	b.CRC = r.u32()
	b.Runtime = r.bytes()
	if n := r.count(4 + 4); r.err == nil {
		b.Ops = make(map[string][]byte, n)
		var id string
		for i := 0; i < n && r.err == nil; i++ {
			id = r.key(i, id)
			b.Ops[id] = r.bytes()
		}
	}
	if n := r.count(4); r.err == nil && n > 0 {
		b.DeltaOps = make(map[string]bool, n)
		var id string
		for i := 0; i < n && r.err == nil; i++ {
			id = r.key(i, id)
			b.DeltaOps[id] = true
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return b, nil
}

// SizeCkptChunk reports the exact frame size AppendCkptChunk will produce.
func SizeCkptChunk(c *ckptChunk) int {
	return 1 + sizeString(c.Slot) + 8 + 8 + 8 + 4 + sizeBytes(c.Data)
}

// AppendCkptChunk encodes a checkpoint chunk frame onto dst.
func AppendCkptChunk(dst []byte, c *ckptChunk) []byte {
	dst = appendU8(dst, byte(kindCkptChunk))
	dst = appendString(dst, c.Slot)
	dst = appendU64(dst, c.Version)
	dst = appendI64(dst, int64(c.Index))
	dst = appendI64(dst, int64(c.Total))
	dst = appendU32(dst, c.CRC)
	return appendBytes(dst, c.Data)
}

// decodeCkptChunk decodes a checkpoint chunk frame. Data is a zero-copy
// view into the frame.
func decodeCkptChunk(frame []byte) (ckptChunk, error) {
	r := reader{b: frame}
	r.kind(kindCkptChunk)
	var c ckptChunk
	c.Slot = r.str()
	c.Version = r.u64()
	c.Index = int(r.i64())
	c.Total = int(r.i64())
	c.CRC = r.u32()
	c.Data = r.bytes()
	return c, r.done()
}

// DecodeAny fully decodes any frame, dispatching on its kind byte. It is
// the fuzzing entry point and the generic "is this frame well-formed"
// check: every byte must be consumed, and malformed or truncated input
// returns an error — never a panic.
func DecodeAny(frame []byte) (interface{}, error) {
	switch FrameKind(frame) {
	case KindStream:
		return DecodeStream(frame)
	case KindBatch:
		return DecodeBatch(frame)
	case kindPreserve:
		return decodePreserve(frame)
	case KindCommand:
		return DecodeCommand(frame)
	case KindReport:
		return DecodeReport(frame)
	case kindRuntime:
		return DecodeRuntime(frame)
	case KindBlob:
		return DecodeBlob(frame)
	case kindCkptChunk:
		return decodeCkptChunk(frame)
	case kindTruncate:
		return decodeTruncate(frame)
	case kindResend:
		return decodeResend(frame)
	case kindFetchBlob:
		return decodeFetchBlob(frame)
	case kindHello:
		return DecodeHello(frame)
	case KindAssign:
		return DecodeAssign(frame)
	case KindSinkOut:
		return decodeSinkOut(frame)
	case KindSpans:
		return DecodeSpans(frame)
	default:
		return nil, errMalformed
	}
}
