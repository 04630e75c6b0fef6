package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mobistreams/internal/simnet"
)

// mesh is a deterministic in-process transport fabric: every attachment can
// reach every other, frames are delivered in one global FIFO order, and
// delivery happens only when the owner pumps Drain. Tell is reliable and
// ordered and costs one frame copy: no goroutine, no socket, no simulated
// medium, so delivery order is a pure function of the send order.
type mesh struct {
	mu    sync.Mutex
	nodes map[simnet.NodeID]*mem
	queue []memFrame
}

type memFrame struct {
	to, from simnet.NodeID
	class    simnet.Class
	frame    []byte
}

// NewMesh creates an empty fabric. The seed is unused: delivery is a pure
// function of the send order.
func NewMesh(seed int64) *mesh {
	return &mesh{nodes: make(map[simnet.NodeID]*mem)}
}

// Attach joins a node to the fabric and returns its transport.
func (m *mesh) Attach(id simnet.NodeID) *mem {
	t := &mem{mesh: m, id: id}
	m.mu.Lock()
	m.nodes[id] = t
	m.mu.Unlock()
	return t
}

// Drain delivers queued frames — including frames the invoked handlers
// enqueue in turn — until the fabric is quiet, and reports how many frames
// it delivered. Handlers run sequentially on the caller's goroutine, so a
// single-threaded driver observes a fully deterministic delivery order.
func (m *mesh) Drain() int {
	delivered := 0
	for {
		m.mu.Lock()
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return delivered
		}
		f := m.queue[0]
		m.queue = m.queue[1:]
		dst := m.nodes[f.to]
		m.mu.Unlock()
		if dst == nil || dst.closed.Load() {
			continue
		}
		if h, _ := dst.h.Load().(Handler); h != nil {
			h(f.from, f.class, f.frame)
			delivered++
		}
	}
}

// mem is one attachment on a mesh. It implements Transport.
type mem struct {
	mesh   *mesh
	id     simnet.NodeID
	h      atomic.Value // Handler
	closed atomic.Bool
}

// Info reports the attachment's identity. A mesh needs no addresses.
func (t *mem) Info() info { return info{ID: t.id} }

// Tell enqueues a reliable ordered delivery. The frame is copied, honouring
// the borrowed-buffer contract.
func (t *mem) Tell(to simnet.NodeID, class simnet.Class, frame []byte) error {
	if t.closed.Load() {
		return errClosed
	}
	m := t.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[to]; !ok {
		return fmt.Errorf("%w: %s", errUnknownPeer, to)
	}
	cp := append(make([]byte, 0, len(frame)), frame...)
	m.queue = append(m.queue, memFrame{to: to, from: t.id, class: class, frame: cp})
	return nil
}

// Receive installs the frame handler.
func (t *mem) Receive(h Handler) { t.h.Store(h) }

// Close detaches the node: pending frames to it are discarded at delivery.
func (t *mem) Close() error {
	t.closed.Store(true)
	return nil
}
