package transport

import (
	"sync"
	"sync/atomic"

	"mobistreams/internal/simnet"
)

// Sim adapts the simulated region networks to the Transport interface: a
// reliable Tell over the shared-airtime WiFi (falling back to cellular when
// the WiFi path is unreachable, mirroring the node runtime's relay rule).
//
// Unlike the in-process message plane — which charges modelled
// Item.WireSize() bytes for payloads that exist only as Go objects — Sim
// charges len(frame): the actual encoded bytes, exactly what the socket
// backend puts on a real wire. Airtime accounting and the codec therefore
// cannot drift apart, which is what makes checkpoint-blob parity between
// the two backends a meaningful claim.
type Sim struct {
	ep   *simnet.Endpoint
	wifi *simnet.WiFi
	cell *simnet.Cellular

	h atomic.Value // Handler

	startOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool
}

// NewSim attaches a transport to an endpoint already joined to the WiFi
// medium (and optionally attached to the cellular network, for the
// fallback path).
func NewSim(ep *simnet.Endpoint, wifi *simnet.WiFi, cell *simnet.Cellular) *Sim {
	return &Sim{ep: ep, wifi: wifi, cell: cell, stop: make(chan struct{})}
}

// Info reports the endpoint's identity. Simnet has no dialable addresses.
func (s *Sim) Info() info { return info{ID: s.ep.ID} }

// Tell reliably delivers the frame over the WiFi, falling back to the
// cellular path when the WiFi destination is unreachable. The frame is
// copied: the simulated network holds a reference until the receiver
// drains it, while Tell's contract lets the caller reuse its buffer.
func (s *Sim) Tell(to simnet.NodeID, class simnet.Class, frame []byte) error {
	if s.closed.Load() {
		return errClosed
	}
	cp := append(make([]byte, 0, len(frame)), frame...)
	err := s.wifi.Unicast(s.ep.ID, to, class, len(cp), cp)
	if err != nil && s.cell != nil {
		err = s.cell.Send(s.ep.ID, to, class, len(cp), cp)
	}
	return err
}

// Receive installs the handler and starts draining the endpoint inbox.
// Messages whose payload is not a frame ([]byte) are ignored: a Sim-backed
// node speaks the wire format exclusively.
func (s *Sim) Receive(h Handler) {
	s.h.Store(h)
	s.startOnce.Do(func() {
		s.wg.Add(1)
		go s.drain()
	})
}

func (s *Sim) drain() {
	defer s.wg.Done()
	inbox := s.ep.Inbox()
	for {
		select {
		case m := <-inbox:
			frame, ok := m.Payload.([]byte)
			if !ok {
				continue
			}
			if h, _ := s.h.Load().(Handler); h != nil {
				h(m.From, m.Class, frame)
			}
		case <-s.stop:
			return
		}
	}
}

// Close stops the drain goroutine. The endpoint itself stays joined to the
// medium (region lifecycle owns it).
func (s *Sim) Close() error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
		s.wg.Wait()
	}
	return nil
}
