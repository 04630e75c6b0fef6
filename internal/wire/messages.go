package wire

import (
	"fmt"
	"time"

	"mobistreams/internal/tuple"
)

// Stream is the wire form of a data-plane stream message: one tuple or
// marker on a slot-to-slot edge. TraceID/TraceSeq carry the sampled
// tracing context across processes; both zero means untraced (the
// overwhelmingly common case — the fields are fixed-width so the frame
// layout stays deterministic either way).
type Stream struct {
	FromSlot string
	FromOp   string
	ToSlot   string
	ToOp     string
	EdgeSeq  uint64
	TraceID  uint64
	TraceSeq uint32
	Item     tuple.Item
}

// Batch is the wire form of a coalesced stream batch bound for one slot.
type Batch struct {
	ToSlot string
	Msgs   []Stream
}

// preserve is the wire form of a source-preservation replica.
type preserve struct {
	Version uint64
	Source  string
	T       *tuple.Tuple
}

// ---- typed tuple values -------------------------------------------------

// Value payload tags. Tuple.Value is interface{}; on the wire it must be
// one of a closed set of primitive types. Encoding any other type is an
// error — callers putting rich in-memory payloads on tuples must serialise
// them to []byte first.
const (
	valNil byte = iota
	valFalse
	valTrue
	valInt
	valUint
	valFloat
	valString
	valBytes
)

// sizeValue reports the encoded size of a tuple value, or an error for an
// unsupported payload type.
func sizeValue(v interface{}) (int, error) {
	switch v := v.(type) {
	case nil, bool:
		return 1, nil
	case int, int32, int64, uint, uint32, uint64, float64:
		return 1 + 8, nil
	case string:
		return 1 + sizeString(v), nil
	case []byte:
		return 1 + sizeBytes(v), nil
	default:
		return 0, fmt.Errorf("%w: unsupported tuple value type %T", errMalformed, v)
	}
}

func appendValue(dst []byte, v interface{}) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return appendU8(dst, valNil), nil
	case bool:
		if v {
			return appendU8(dst, valTrue), nil
		}
		return appendU8(dst, valFalse), nil
	case int:
		return appendI64(appendU8(dst, valInt), int64(v)), nil
	case int32:
		return appendI64(appendU8(dst, valInt), int64(v)), nil
	case int64:
		return appendI64(appendU8(dst, valInt), v), nil
	case uint:
		return appendU64(appendU8(dst, valUint), uint64(v)), nil
	case uint32:
		return appendU64(appendU8(dst, valUint), uint64(v)), nil
	case uint64:
		return appendU64(appendU8(dst, valUint), v), nil
	case float64:
		return appendF64(appendU8(dst, valFloat), v), nil
	case string:
		return appendString(appendU8(dst, valString), v), nil
	case []byte:
		return appendBytes(appendU8(dst, valBytes), v), nil
	default:
		return dst, fmt.Errorf("%w: unsupported tuple value type %T", errMalformed, v)
	}
}

// decodeValue reads a tagged value. Integer payloads decode as int64 or
// uint64 regardless of the width they were encoded from; []byte payloads
// are zero-copy views into the frame. A []byte value's interface is carved
// from bs, whose array is made large enough for the left values still to
// come (this one included) when it runs out, so a batch frame's []byte
// values cost one allocation instead of one box each. A kept value keeps
// that array alive, as a decoded tuple keeps the frame's tuple array and a
// []byte value the frame. Other kinds are boxed one by one.
func decodeValue(r *reader, bs *tuple.Boxes[[]byte], left int) interface{} {
	switch tag := r.u8(); tag {
	case valNil:
		return nil
	case valFalse:
		return false
	case valTrue:
		return true
	case valInt:
		return r.i64()
	case valUint:
		return r.u64()
	case valFloat:
		return r.f64()
	case valString:
		return r.str()
	case valBytes:
		v := r.bytes()
		bs.Grow(left)
		return bs.Box(v)
	default:
		r.off--
		r.fail(errMalformed, "value tag")
		return nil
	}
}

// ---- tuples, markers, items ---------------------------------------------

func sizeTuple(t *tuple.Tuple) (int, error) {
	vs, err := sizeValue(t.Value)
	if err != nil {
		return 0, err
	}
	return 8 + sizeString(t.Source) + sizeString(t.Kind) + 8 + 8 + 1 + vs, nil
}

func appendTuple(dst []byte, t *tuple.Tuple) ([]byte, error) {
	dst = appendU64(dst, t.Seq)
	dst = appendString(dst, t.Source)
	dst = appendString(dst, t.Kind)
	return appendTupleTail(dst, t)
}

// appendTupleTail encodes the fields that follow a tuple's names.
func appendTupleTail(dst []byte, t *tuple.Tuple) ([]byte, error) {
	dst = appendI64(dst, int64(t.Created))
	dst = appendI64(dst, int64(t.Size))
	dst = appendBool(dst, t.Replay)
	return appendValue(dst, t.Value)
}

func decodeTuple(r *reader) *tuple.Tuple {
	t := &tuple.Tuple{}
	t.Seq = r.u64()
	t.Source = r.interned()
	t.Kind = r.interned()
	decodeTupleTail(r, t)
	var bs tuple.Boxes[[]byte]
	t.Value = decodeValue(r, &bs, 1)
	if r.err != nil {
		return nil
	}
	return t
}

// decodeTupleTail decodes the fields between a tuple's names and its value.
func decodeTupleTail(r *reader, t *tuple.Tuple) {
	t.Created = time.Duration(r.i64())
	t.Size = int(r.i64())
	t.Replay = r.boolean()
}

const sizeMarker = 1 + 8

func appendMarker(dst []byte, m *tuple.Marker) []byte {
	dst = appendU8(dst, byte(m.Kind))
	return appendU64(dst, m.Version)
}

func decodeMarker(r *reader) *tuple.Marker {
	m := &tuple.Marker{}
	m.Kind = tuple.MarkerKind(r.u8())
	m.Version = r.u64()
	if r.err != nil {
		return nil
	}
	return m
}

const (
	itemTuple  byte = 0
	itemMarker byte = 1
)

var errEmptyItem = fmt.Errorf("%w: empty item (no tuple, no marker)", errMalformed)

// sizeItem reports the encoded size of a stream item.
func sizeItem(it tuple.Item) (int, error) {
	if it.Tuple != nil {
		ts, err := sizeTuple(it.Tuple)
		return 1 + ts, err
	}
	if it.Marker != nil {
		return 1 + sizeMarker, nil
	}
	return 0, errEmptyItem
}

// appendItem encodes a stream item (exactly one of tuple or marker).
func appendItem(dst []byte, it tuple.Item) ([]byte, error) {
	if it.Tuple != nil {
		return appendTuple(appendU8(dst, itemTuple), it.Tuple)
	}
	if it.Marker != nil {
		return appendMarker(appendU8(dst, itemMarker), it.Marker), nil
	}
	return dst, errEmptyItem
}

func decodeItem(r *reader) tuple.Item {
	switch flag := r.u8(); flag {
	case itemTuple:
		return tuple.Item{Tuple: decodeTuple(r)}
	case itemMarker:
		return tuple.Item{Marker: decodeMarker(r)}
	default:
		r.off--
		r.fail(errMalformed, "item flag")
		return tuple.Item{}
	}
}

// ---- stream messages ----------------------------------------------------

// SizeStream reports the exact frame size AppendStream will produce.
func SizeStream(m *Stream) (int, error) {
	is, err := sizeItem(m.Item)
	if err != nil {
		return 0, err
	}
	return 1 + sizeString(m.FromSlot) + sizeString(m.FromOp) +
		sizeString(m.ToSlot) + sizeString(m.ToOp) + 8 + 8 + 4 + is, nil
}

// AppendStream encodes a stream message frame onto dst.
func AppendStream(dst []byte, m *Stream) ([]byte, error) {
	dst = appendU8(dst, byte(KindStream))
	dst = appendString(dst, m.FromSlot)
	dst = appendString(dst, m.FromOp)
	dst = appendString(dst, m.ToSlot)
	dst = appendString(dst, m.ToOp)
	dst = appendU64(dst, m.EdgeSeq)
	dst = appendU64(dst, m.TraceID)
	dst = appendU32(dst, m.TraceSeq)
	out, err := appendItem(dst, m.Item)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// DecodeStream decodes a stream message frame.
func DecodeStream(frame []byte) (Stream, error) {
	r := reader{b: frame}
	r.kind(KindStream)
	var m Stream
	m.FromSlot = r.interned()
	m.FromOp = r.interned()
	m.ToSlot = r.interned()
	m.ToOp = r.interned()
	m.EdgeSeq = r.u64()
	m.TraceID = r.u64()
	m.TraceSeq = r.u32()
	m.Item = decodeItem(&r)
	return m, r.done()
}

// ---- batches ------------------------------------------------------------
//
// A batch frame is the batch's ToSlot, a message count, then the messages.
// Messages of one batch mostly repeat the same six names, so each starts
// with a flags byte saying which names are unchanged, and only the changed
// ones follow as literals:
//
//	flags u8, [FromSlot] [FromOp] [ToSlot] [ToOp], EdgeSeq u64,
//	[TraceID u64, TraceSeq u32], item u8, then
//	tuple:  Seq u64, [Source] [Kind], Created, Size, Replay, Value
//	marker: Kind u8, Version u64
//
// The slot and operator names compare against the previous message; before
// the first they are empty, except ToSlot, which is the batch's. Source and
// Kind compare against the previous tuple (empty before the first); markers
// have neither and leave both bits clear. The encoding stays canonical: a
// bit is set exactly when the name is unchanged, untraced exactly when
// TraceID and TraceSeq are both zero, and the reserved bit never.
const (
	sameFromSlot byte = 1 << iota
	sameFromOp
	sameToSlot
	sameToOp
	sameSource
	sameKind
	untraced
	flagsReserved
)

// batchMsgMin is the minimum encoded size of one batched message (flags,
// edge sequence, item flag and a marker body); batch decode uses it to
// bound hostile counts.
const batchMsgMin = 1 + 8 + 1 + sizeMarker

func sameBit(a, b string, bit byte) byte {
	if a == b {
		return bit
	}
	return 0
}

// batchFlags computes a message's flags byte against the previous message
// and the previous tuple of its batch.
func batchFlags(m, prev *Stream, prevT *tuple.Tuple) byte {
	f := sameBit(m.FromSlot, prev.FromSlot, sameFromSlot) | sameBit(m.FromOp, prev.FromOp, sameFromOp) |
		sameBit(m.ToSlot, prev.ToSlot, sameToSlot) | sameBit(m.ToOp, prev.ToOp, sameToOp)
	if t := m.Item.Tuple; t != nil {
		f |= sameBit(t.Source, prevT.Source, sameSource) | sameBit(t.Kind, prevT.Kind, sameKind)
	}
	if m.TraceID == 0 && m.TraceSeq == 0 {
		f |= untraced
	}
	return f
}

// sizeUnless and appendUnless size and encode a name whose "same" bit is clear.
func sizeUnless(same byte, s string) int {
	if same != 0 {
		return 0
	}
	return sizeString(s)
}

func appendUnless(dst []byte, same byte, s string) []byte {
	if same != 0 {
		return dst
	}
	return appendString(dst, s)
}

// SizeBatch reports the exact frame size AppendBatch will produce.
func SizeBatch(b *Batch) (int, error) {
	total := 1 + sizeString(b.ToSlot) + 4
	prev, prevT := &Stream{ToSlot: b.ToSlot}, &tuple.Tuple{}
	for i := range b.Msgs {
		m := &b.Msgs[i]
		f := batchFlags(m, prev, prevT)
		total += 1 + 8 + 1 + sizeUnless(f&sameFromSlot, m.FromSlot) + sizeUnless(f&sameFromOp, m.FromOp) +
			sizeUnless(f&sameToSlot, m.ToSlot) + sizeUnless(f&sameToOp, m.ToOp)
		if f&untraced == 0 {
			total += 8 + 4
		}
		switch t := m.Item.Tuple; {
		case t != nil:
			vs, err := sizeValue(t.Value)
			if err != nil {
				return 0, err
			}
			total += 8 + 8 + 8 + 1 + vs + sizeUnless(f&sameSource, t.Source) + sizeUnless(f&sameKind, t.Kind)
			prevT = t
		case m.Item.Marker != nil:
			total += sizeMarker
		default:
			return 0, errEmptyItem
		}
		prev = m
	}
	return total, nil
}

// AppendBatch encodes a batch frame onto dst.
func AppendBatch(dst []byte, b *Batch) ([]byte, error) {
	dst = appendU8(dst, byte(KindBatch))
	dst = appendString(dst, b.ToSlot)
	dst = appendU32(dst, uint32(len(b.Msgs)))
	prev, prevT := &Stream{ToSlot: b.ToSlot}, &tuple.Tuple{}
	for i := range b.Msgs {
		m := &b.Msgs[i]
		f := batchFlags(m, prev, prevT)
		dst = appendU8(dst, f)
		dst = appendUnless(dst, f&sameFromSlot, m.FromSlot)
		dst = appendUnless(dst, f&sameFromOp, m.FromOp)
		dst = appendUnless(dst, f&sameToSlot, m.ToSlot)
		dst = appendUnless(dst, f&sameToOp, m.ToOp)
		dst = appendU64(dst, m.EdgeSeq)
		if f&untraced == 0 {
			dst = appendU32(appendU64(dst, m.TraceID), m.TraceSeq)
		}
		switch t := m.Item.Tuple; {
		case t != nil:
			dst = appendU64(appendU8(dst, itemTuple), t.Seq)
			dst = appendUnless(dst, f&sameSource, t.Source)
			dst = appendUnless(dst, f&sameKind, t.Kind)
			var err error
			if dst, err = appendTupleTail(dst, t); err != nil {
				return dst, err
			}
			prevT = t
		case m.Item.Marker != nil:
			dst = appendMarker(appendU8(dst, itemMarker), m.Item.Marker)
		default:
			return dst, errEmptyItem
		}
		prev = m
	}
	return dst, nil
}

// name reads a delta-coded name: the predecessor's when its "same" bit is
// set (a string-header copy), else an interned literal, which the
// canonical encoding requires to differ from the predecessor.
func (r *reader) name(same byte, prev string) string {
	if same != 0 {
		return prev
	}
	s := r.interned()
	if r.err == nil && s == prev {
		r.fail(errMalformed, "non-canonical repeated name")
	}
	return s
}

// DecodeBatch decodes a batch frame. Every tuple of the frame is carved
// from one backing array, and every []byte value from another (see
// decodeValue), so retaining one decoded tuple retains them all; []byte
// values are views into the frame, as everywhere in this package.
func DecodeBatch(frame []byte) (Batch, error) {
	r := reader{b: frame}
	r.kind(KindBatch)
	var b Batch
	b.ToSlot = r.interned()
	n := r.count(batchMsgMin)
	if r.err != nil || n == 0 {
		return b, r.done()
	}
	b.Msgs = make([]Stream, n)
	var slab tuple.Slab
	var bs tuple.Boxes[[]byte]
	prev, prevT := &Stream{ToSlot: b.ToSlot}, &tuple.Tuple{}
	for i := 0; i < n && r.err == nil; i++ {
		m := &b.Msgs[i]
		f := r.u8()
		if f&flagsReserved != 0 {
			r.fail(errMalformed, "reserved batch flag")
		}
		m.FromSlot = r.name(f&sameFromSlot, prev.FromSlot)
		m.FromOp = r.name(f&sameFromOp, prev.FromOp)
		m.ToSlot = r.name(f&sameToSlot, prev.ToSlot)
		m.ToOp = r.name(f&sameToOp, prev.ToOp)
		m.EdgeSeq = r.u64()
		if f&untraced == 0 {
			m.TraceID, m.TraceSeq = r.u64(), r.u32()
			if m.TraceID == 0 && m.TraceSeq == 0 {
				r.fail(errMalformed, "non-canonical zero trace context")
			}
		}
		switch item := r.u8(); {
		case r.err != nil:
		case item == itemTuple:
			slab.Grow(n - i)
			t := slab.New()
			t.Seq = r.u64()
			t.Source = r.name(f&sameSource, prevT.Source)
			t.Kind = r.name(f&sameKind, prevT.Kind)
			decodeTupleTail(&r, t)
			t.Value = decodeValue(&r, &bs, n-i)
			m.Item.Tuple, prevT = t, t
		case item == itemMarker && f&(sameSource|sameKind) == 0:
			m.Item.Marker = decodeMarker(&r)
		default:
			r.fail(errMalformed, "batch item")
		}
		prev = m
	}
	return b, r.done()
}

// ---- preservation and sink output ---------------------------------------

// SizePreserve reports the exact frame size AppendPreserve will produce.
func SizePreserve(p *preserve) (int, error) {
	if p.T == nil {
		return 0, fmt.Errorf("%w: preserve without tuple", errMalformed)
	}
	ts, err := sizeTuple(p.T)
	if err != nil {
		return 0, err
	}
	return 1 + 8 + sizeString(p.Source) + ts, nil
}

// AppendPreserve encodes a source-preservation frame onto dst.
func AppendPreserve(dst []byte, p *preserve) ([]byte, error) {
	if p.T == nil {
		return dst, fmt.Errorf("%w: preserve without tuple", errMalformed)
	}
	dst = appendU8(dst, byte(kindPreserve))
	dst = appendU64(dst, p.Version)
	dst = appendString(dst, p.Source)
	return appendTuple(dst, p.T)
}

// decodePreserve decodes a source-preservation frame.
func decodePreserve(frame []byte) (preserve, error) {
	r := reader{b: frame}
	r.kind(kindPreserve)
	var p preserve
	p.Version = r.u64()
	p.Source = r.interned()
	p.T = decodeTuple(&r)
	return p, r.done()
}

// SizeSinkOut reports the exact frame size AppendSinkOut will produce.
func SizeSinkOut(t *tuple.Tuple) (int, error) {
	if t == nil {
		return 0, fmt.Errorf("%w: sink-out without tuple", errMalformed)
	}
	ts, err := sizeTuple(t)
	if err != nil {
		return 0, err
	}
	return 1 + ts, nil
}

// AppendSinkOut encodes a sink output tuple frame onto dst.
func AppendSinkOut(dst []byte, t *tuple.Tuple) ([]byte, error) {
	if t == nil {
		return dst, fmt.Errorf("%w: sink-out without tuple", errMalformed)
	}
	return appendTuple(appendU8(dst, byte(KindSinkOut)), t)
}

// decodeSinkOut decodes a sink output tuple frame.
func decodeSinkOut(frame []byte) (*tuple.Tuple, error) {
	r := reader{b: frame}
	r.kind(KindSinkOut)
	t := decodeTuple(&r)
	if err := r.done(); err != nil {
		return nil, err
	}
	return t, nil
}
