// Package wire is the deterministic binary wire format for everything that
// crosses a transport: stream tuples and markers, batches, controller
// commands and node reports, checkpoint runtime state, blobs and chunks.
//
// The codec is built for two properties the rest of the system leans on:
//
//   - Deterministic encode. The same logical message always encodes to the
//     same bytes — map-backed structures (runtime counters, blob operator
//     entries) are written in sorted key order, and every integer is
//     fixed-width big-endian. Checkpoint blob parity across transport
//     backends (simnet vs real sockets) reduces to byte equality.
//
//   - Zero-alloc encode, bounds-checked decode. Every AppendX encoder
//     appends to a caller-owned buffer and allocates nothing when capacity
//     suffices; every SizeX reports the exact encoded size so callers can
//     presize. Decoders are bounds-checked cursors over the input frame:
//     malformed or truncated input yields an error — never a panic or an
//     over-read. Decoding returns values, not views: every string is
//     copied out of the frame, and only []byte fields are views into it
//     (valid only while the frame is). Slot, operator, source and kind
//     names come from a process-wide intern table (intern.go), so a name
//     an earlier frame carried costs no allocation.
//
// A frame is one kind byte followed by the kind-specific body. DecodeAny
// dispatches on the kind and fully validates the body, including rejecting
// trailing bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// kind tags a frame with its message type.
type kind byte

const (
	// kindInvalid is the zero kind; no frame uses it.
	kindInvalid kind = iota
	// KindStream is one data-plane stream message (tuple or marker).
	KindStream
	// KindBatch is a coalesced batch of stream messages for one slot.
	KindBatch
	// kindPreserve is a source-preservation replica of one admitted tuple.
	kindPreserve
	// KindCommand is a controller-to-node command.
	KindCommand
	// KindReport is a node-to-controller report.
	KindReport
	// kindRuntime is a node's checkpoint runtime state (edge counters).
	kindRuntime
	// KindBlob is a whole checkpoint blob.
	KindBlob
	// kindCkptChunk is one chunk of a chunked checkpoint blob upload.
	kindCkptChunk
	// kindTruncate is an upstream retained-output truncation notice.
	kindTruncate
	// kindResend is an upstream resend request.
	kindResend
	// kindFetchBlob is a peer blob fetch request.
	kindFetchBlob
	// kindHello is the socket-transport peer handshake.
	kindHello
	// KindAssign is the lead-to-worker region assignment.
	KindAssign
	// KindSinkOut is one sink output tuple forwarded to the region lead.
	KindSinkOut
	// KindSpans is a worker's batch of recorded trace spans, shipped to
	// the region lead when the run winds down.
	KindSpans

	numKinds
)

var kindNames = [...]string{"invalid", "stream", "batch", "preserve",
	"command", "report", "runtime", "blob", "ckpt-chunk", "truncate",
	"resend", "fetch-blob", "hello", "assign", "sink-out", "spans"}

func (k kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// errTruncated is wrapped by decode errors caused by frames shorter than
// their declared contents.
var errTruncated = errors.New("wire: truncated frame")

// errMalformed is wrapped by decode errors caused by structurally invalid
// frames (bad kind, bad tag, trailing bytes, oversized counts).
var errMalformed = errors.New("wire: malformed frame")

// FrameKind peeks at a frame's kind byte without decoding the body.
func FrameKind(frame []byte) kind {
	if len(frame) == 0 {
		return kindInvalid
	}
	k := kind(frame[0])
	if k == kindInvalid || k >= numKinds {
		return kindInvalid
	}
	return k
}

// ---- primitive encoders -------------------------------------------------

func appendU8(dst []byte, v byte) []byte { return append(dst, v) }

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendI64(dst []byte, v int64) []byte { return appendU64(dst, uint64(v)) }

func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func sizeBytes(b []byte) int  { return 4 + len(b) }
func sizeString(s string) int { return 4 + len(s) }

// ---- bounds-checked decode cursor ---------------------------------------

// reader is a bounds-checked cursor over one frame. Every accessor checks
// the remaining length first; on violation it latches an error and returns
// the zero value, so decoders can read linearly and check err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(err error, what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", err, what, r.off)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail(errTruncated, "u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 4 {
		r.fail(errTruncated, "u32")
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(errTruncated, "u64")
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.off--
		r.fail(errMalformed, "bool")
		return false
	}
}

// bytes returns a zero-copy view into the frame.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		r.fail(errTruncated, "bytes body")
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *reader) str() string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n > r.remaining() {
		r.fail(errTruncated, "string body")
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// count reads a collection length and rejects counts that could not
// possibly fit in the remaining bytes (each element occupies at least
// minElem bytes), bounding decoder allocation on hostile input.
func (r *reader) count(minElem int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if minElem < 1 {
		minElem = 1
	}
	if n > r.remaining()/minElem {
		r.fail(errMalformed, "oversized count")
		return 0
	}
	return n
}

// kind consumes and validates the leading kind byte.
func (r *reader) kind(want kind) {
	k := kind(r.u8())
	if r.err == nil && k != want {
		r.off--
		r.fail(errMalformed, fmt.Sprintf("kind %s, want %s", k, want))
	}
}

// done rejects trailing bytes after a complete decode.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errMalformed, r.remaining())
	}
	return nil
}
