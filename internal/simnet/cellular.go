package simnet

import (
	"fmt"
	"sync"
	"time"

	"mobistreams/internal/clock"
)

// CellularConfig parameterises the cellular network. The paper's measured
// 3G rates are 0.016–0.32 Mbps uplink and 0.35–1.14 Mbps downlink per
// device.
type CellularConfig struct {
	UpBitsPerSecond   float64
	DownBitsPerSecond float64
	// Latency is the one-way base latency of the cellular path.
	Latency time.Duration
	// SharedBps caps the cell tower's aggregate throughput; zero means
	// uncapped. When many phones transfer at once (simultaneous
	// departures, §IV-B) the tower becomes the bottleneck.
	SharedBps float64
}

func (c *CellularConfig) applyDefaults() {
	if c.UpBitsPerSecond <= 0 {
		c.UpBitsPerSecond = 0.1e6
	}
	if c.DownBitsPerSecond <= 0 {
		c.DownBitsPerSecond = 0.7e6
	}
}

// link is one direction of one device's cellular attachment.
type link struct {
	bps       float64
	busyUntil time.Duration
}

// Cellular is the wide-area network connecting phones to the controller and
// regions to each other. Each attached device has its own uplink and
// downlink; a transfer occupies the sender's uplink then the receiver's
// downlink.
type Cellular struct {
	cfg CellularConfig
	clk clock.Clock

	Counters counters

	mu        sync.Mutex
	endpoints map[NodeID]*Endpoint
	up        map[NodeID]*link
	down      map[NodeID]*link
	tower     *link
}

// NewCellular creates a cellular network.
func NewCellular(clk clock.Clock, cfg CellularConfig) *Cellular {
	cfg.applyDefaults()
	c := &Cellular{
		cfg:       cfg,
		clk:       clk,
		endpoints: make(map[NodeID]*Endpoint),
		up:        make(map[NodeID]*link),
		down:      make(map[NodeID]*link),
	}
	if cfg.SharedBps > 0 {
		c.tower = &link{bps: cfg.SharedBps}
	}
	return c
}

// Attach registers an endpoint with default per-device rates.
func (c *Cellular) Attach(ep *Endpoint) {
	c.AttachRated(ep, c.cfg.UpBitsPerSecond, c.cfg.DownBitsPerSecond)
}

// AttachRated registers an endpoint with custom rates. The controller and
// data-center servers attach with high rates: their wired links are never
// the bottleneck.
func (c *Cellular) AttachRated(ep *Endpoint, upBps, downBps float64) {
	c.mu.Lock()
	c.endpoints[ep.ID] = ep
	c.up[ep.ID] = &link{bps: upBps}
	c.down[ep.ID] = &link{bps: downBps}
	c.mu.Unlock()
}

// Attached reports whether the device is registered.
func (c *Cellular) Attached(id NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.endpoints[id]
	return ok
}

// occupyLink reserves `size` bytes on l and returns the reservation end.
func (c *Cellular) occupyLink(l *link, size int) time.Duration {
	dur := time.Duration(float64(size*8) / l.bps * float64(time.Second))
	c.mu.Lock()
	now := c.clk.Now()
	start := l.busyUntil
	if now > start {
		start = now
	}
	l.busyUntil = start + dur
	end := l.busyUntil
	c.mu.Unlock()
	return end
}

// Send transfers size bytes from one device to another, occupying the
// sender's uplink and then the receiver's downlink, chunk by chunk. It
// blocks until delivery and returns errUnreachable if either side is
// detached or the destination is sealed.
func (c *Cellular) Send(from, to NodeID, class Class, size int, payload interface{}) error {
	return c.send(from, to, class, size, payload, nil)
}

// Request is Send plus the caller's reply channel for RPC-style exchanges;
// like WiFi.Request's, it must have room for the answer.
func (c *Cellular) Request(from, to NodeID, class Class, size int, payload interface{}, reply chan Message) error {
	return c.send(from, to, class, size, payload, reply)
}

// Respond answers a Request over the cellular path.
func (c *Cellular) Respond(req Message, from NodeID, class Class, size int, payload interface{}) error {
	if req.Reply == nil {
		return fmt.Errorf("simnet: respond without reply channel")
	}
	c.mu.Lock()
	upl := c.up[from]
	downl := c.down[req.From]
	c.mu.Unlock()
	if upl == nil || downl == nil {
		return errUnreachable
	}
	c.transfer(upl, downl, size)
	c.Counters.add(class, size)
	req.Reply <- Message{From: from, To: req.From, Class: class, Size: size, Payload: payload}
	return nil
}

func (c *Cellular) send(from, to NodeID, class Class, size int, payload interface{}, reply chan Message) error {
	c.mu.Lock()
	ep := c.endpoints[to]
	upl := c.up[from]
	downl := c.down[to]
	c.mu.Unlock()
	if ep == nil || upl == nil || downl == nil || ep.sealed.Load() {
		return errUnreachable
	}
	c.transfer(upl, downl, size)
	c.Counters.add(class, size)
	if ep.sealed.Load() {
		return errUnreachable
	}
	ep.inbox <- Message{From: from, To: to, Class: class, Size: size, Payload: payload, Reply: reply}
	return nil
}

// transfer pipelines chunks through uplink then downlink and sleeps until
// the last chunk clears the downlink plus base latency.
func (c *Cellular) transfer(upl, downl *link, size int) {
	if size <= 0 {
		if c.cfg.Latency > 0 {
			c.clk.Sleep(c.cfg.Latency)
		}
		return
	}
	var lastEnd time.Duration
	remaining := size
	for remaining > 0 {
		chunk := remaining
		if chunk > chunkBytes {
			chunk = chunkBytes
		}
		upEnd := c.occupyLink(upl, chunk)
		// The shared tower serialises concurrent transfers.
		if c.tower != nil {
			if tEnd := c.occupyLink(c.tower, chunk); tEnd > upEnd {
				upEnd = tEnd
			}
		}
		// The downlink reservation cannot start before the chunk has
		// cleared the uplink (and the tower).
		c.mu.Lock()
		if downl.busyUntil < upEnd {
			downl.busyUntil = upEnd
		}
		c.mu.Unlock()
		lastEnd = c.occupyLink(downl, chunk)
		remaining -= chunk
	}
	now := c.clk.Now()
	if wait := lastEnd + c.cfg.Latency - now; wait > 0 {
		c.clk.Sleep(wait)
	}
}
