// Package tuple defines the unit of data exchanged between operators and
// the in-band control markers (checkpoint tokens, replay-end markers) that
// travel inside data streams.
//
// A tuple's Size is its on-the-wire size in bytes: the network simulator
// charges airtime by Size, so producers must set it to the realistic
// serialized size of the payload (e.g. the byte length of a camera image).
package tuple

import (
	"fmt"
	"time"
)

// Tuple is one unit of data in a stream.
type Tuple struct {
	// Seq is the per-source sequence number, assigned by the source
	// operator that admitted the tuple into the region.
	Seq uint64
	// Source is the ID of the source operator that admitted the tuple.
	Source string
	// Kind names the payload type (e.g. "image", "businfo", "count").
	Kind string
	// Created is the simulated time at which the tuple entered the
	// system; end-to-end latency is measured against it.
	Created time.Duration
	// Size is the serialized size in bytes charged by the network.
	Size int
	// Replay marks tuples that are being re-processed during catch-up
	// after a failure; sinks discard results derived from them.
	Replay bool
	// Value is the typed payload.
	Value interface{}
}

// slabSize is how many elements a full carving array holds: 33 tuples of
// 80 B fill the 2688 B size class that 32 would be rounded up to anyway.
// The odd count also keeps a sampler with a power-of-two period from
// landing on the refilling carve every time.
const slabSize = 33

// carver hands out elements of arrays owned by one goroutine; it is the one
// carving implementation behind Slab and Boxes. A carved element is never
// handed out again: when an array is used up the next carve allocates a
// fresh one, and the GC frees an old array once none of its elements is
// referenced. Arrays double from one element up to slabSize, so a
// short-lived carver (one operator.Run call) allocates no more than plain
// copies would, and a long-lived one costs 1/slabSize of an allocation per
// carve. No element is recycled under a live reference. The price is
// retention: a kept element keeps its whole array alive.
type carver[T any] struct {
	free []T
	next int // length of the next array
}

func (c *carver[T]) carve() *T {
	if len(c.free) == 0 {
		c.next = min(max(2*c.next, 1), slabSize)
		c.free = make([]T, c.next)
	}
	p := &c.free[0]
	c.free = c.free[1:]
	return p
}

// Grow guarantees that the next n carves come from the current array: when
// fewer than n elements are left it allocates an array of exactly n,
// abandoning the rest of the old one. A decoder that knows how many
// elements a frame needs calls it before each carve, so the whole frame
// costs one array. It does not change the doubling of later arrays.
func (c *carver[T]) Grow(n int) {
	if len(c.free) < n {
		c.free = make([]T, n)
	}
}

// Slab carves tuples out of arrays owned by one goroutine (see carver): a
// kept tuple keeps its whole array, and its neighbours' payloads, alive.
// Payloads are treated as immutable once emitted, so a shallow copy is
// sufficient for derivation, replication and preservation. A Slab is not
// safe for concurrent use; the zero value is ready.
type Slab struct {
	carver[Tuple]
}

// New returns a zeroed tuple carved from the slab.
func (s *Slab) New() *Tuple { return s.carve() }

// Clone returns a shallow copy of t carved from the slab.
func (s *Slab) Clone(t *Tuple) *Tuple {
	c := s.New()
	*c = *t
	return c
}

func (t *Tuple) String() string {
	return fmt.Sprintf("tuple{%s#%d %s %dB}", t.Source, t.Seq, t.Kind, t.Size)
}

// MarkerKind distinguishes the in-band control markers.
type MarkerKind int

const (
	// MarkerToken is a checkpoint token (§III-B). A node checkpoints
	// after receiving the token of a given version from every upstream
	// neighbour.
	MarkerToken MarkerKind = iota
	// MarkerReplayEnd terminates catch-up: sources emit it after
	// replaying preserved input, and sinks resume publishing once it has
	// arrived from all upstream neighbours.
	MarkerReplayEnd
)

func (k MarkerKind) String() string {
	switch k {
	case MarkerToken:
		return "token"
	case MarkerReplayEnd:
		return "replay-end"
	default:
		return fmt.Sprintf("marker(%d)", int(k))
	}
}

// tokenSize is the on-the-wire size of a marker in bytes. The paper reports
// token overhead below 1% of tuple size; 64 bytes is negligible next to
// 100+ KB image tuples.
const tokenSize = 64

// Marker is an in-band control marker. Markers flow through the same FIFO
// edges as tuples, so a marker received on an edge partitions that edge's
// stream exactly: every tuple before the marker belongs to the pre-marker
// cut and every tuple after it to the post-marker cut.
type Marker struct {
	Kind MarkerKind
	// Version is the checkpoint version for MarkerToken, or the recovery
	// epoch for MarkerReplayEnd.
	Version uint64
}

func (m Marker) String() string {
	return fmt.Sprintf("%s(v%d)", m.Kind, m.Version)
}

// Item is what actually travels on a stream edge: exactly one of Tuple or
// Marker is non-nil.
type Item struct {
	Tuple  *Tuple
	Marker *Marker
}

// WireSize reports the bytes the network charges for this item.
func (it Item) WireSize() int {
	if it.Tuple != nil {
		return it.Tuple.Size
	}
	return tokenSize
}

// DataItem wraps a tuple as a stream item.
func DataItem(t *Tuple) Item { return Item{Tuple: t} }

// MarkerItem wraps a marker as a stream item.
func MarkerItem(m Marker) Item { return Item{Marker: &m} }
