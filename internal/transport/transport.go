// Package transport abstracts the network under the MobiStreams planes so
// the same runtime code can run over the simulated region WiFi or over real
// TCP sockets. The interface is deliberately minimal — the Info /
// Tell / Receive triple — with frames as opaque []byte encoded by
// internal/wire; everything transport-specific (airtime reservation,
// dialing, framing, retry) lives behind it.
//
// Frame ownership: Tell treats the frame as borrowed — callers may reuse
// the buffer as soon as the call returns. Receive hands the handler a
// frame it owns. A kept frame may keep a larger receive array alive: the
// socket backend carves small frames from shared per-connection chunks.
package transport

import (
	"errors"

	"mobistreams/internal/simnet"
)

// Handler consumes one received frame. Handlers are invoked sequentially
// per sender connection (per-edge FIFO is preserved) but concurrently
// across senders.
type Handler func(from simnet.NodeID, class simnet.Class, frame []byte)

// info identifies a transport attachment.
type info struct {
	// ID is the node's identity on the transport.
	ID simnet.NodeID
	// Addr is the address peers can dial to reach this node; empty for
	// backends without addressing (simnet).
	Addr string
}

// Transport is the minimal reliable messaging substrate: identity, an
// ordered reliable send to one peer, and a receive hook.
type Transport interface {
	// Info reports this attachment's identity.
	Info() info
	// Tell queues frame for the peer in order among Tells to the same
	// (peer, class) and delivers it reliably. A backend may return before
	// the frame reaches the network: the socket backend copies a small
	// frame into the stream's queue and returns, and borrows a large one
	// until it is written, so the caller may reuse its buffer either way
	// once Tell returns. It returns an error if the peer is unknown or
	// unreachable.
	Tell(to simnet.NodeID, class simnet.Class, frame []byte) error
	// Receive installs the frame handler. It must be called before
	// traffic arrives; frames received with no handler installed are
	// dropped.
	Receive(h Handler)
	// Close releases the attachment. Pending receives are abandoned.
	Close() error
}

// errUnknownPeer is returned by Tell when the destination has no
// address book entry and cannot be dialed.
var errUnknownPeer = errors.New("transport: unknown peer")

// errClosed is returned by operations on a closed transport.
var errClosed = errors.New("transport: closed")
