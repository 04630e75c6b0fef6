// Package server models the conventional server-based DSPS deployment of
// Fig. 1c for Table I: phones are thin clients that upload every sensed
// tuple over the 3G uplink to a data center, which runs the whole query
// network on fast servers and pushes results back over the downlink. The
// uplink is the bottleneck the paper's measurements expose (§IV-A).
package server

import (
	"sync"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/metrics"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
)

// resultBytes is the result tuple pushed back per input.
const resultBytes = 512

// Config parameterises a server-based deployment of one region's workload.
type Config struct {
	Clock clock.Clock
	// UplinkBps / DownlinkBps are the per-device 3G rates (paper ranges:
	// 0.016-0.32 Mbps up, 0.35-1.14 Mbps down).
	UplinkBps   float64
	DownlinkBps float64
	// CellLatency is the one-way cellular latency.
	CellLatency time.Duration
	// ServerSpeedup divides phone service times: data-center cores are
	// far faster than the 600 MHz A8 (default 20x).
	ServerSpeedup float64
	// PipelineCost is the total phone-CPU service time of the query
	// network per tuple; the server charges PipelineCost/ServerSpeedup.
	PipelineCost time.Duration
	// QueueCap bounds the upload queue per device; a full queue drops
	// the oldest pending frame (cameras overwrite stale frames).
	QueueCap int
}

func (c *Config) applyDefaults() {
	if c.ServerSpeedup <= 0 {
		c.ServerSpeedup = 20
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 8
	}
}

// deployment is one running server-based setup.
type deployment struct {
	cfg  Config
	clk  clock.Clock
	cell *simnet.Cellular

	mu       sync.Mutex
	queue    []upload
	dropped  int64
	client   *simnet.Endpoint
	dc       *simnet.Endpoint
	winStart time.Duration // the measurement window Report views

	// obs holds the sink-latency family: one observation per result pushed
	// back, so its count is the output count since the window opened.
	obs  *obs.Registry
	sink *obs.Histogram

	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	wake   chan struct{}
}

type upload struct {
	size    int
	created time.Duration
}

// New builds a deployment with one uploading device (the paper's per-region
// sensor feed rides a single camera uplink).
func New(cfg Config) *deployment {
	cfg.applyDefaults()
	cell := simnet.NewCellular(cfg.Clock, simnet.CellularConfig{
		UpBitsPerSecond:   cfg.UplinkBps,
		DownBitsPerSecond: cfg.DownlinkBps,
		Latency:           cfg.CellLatency,
	})
	d := &deployment{
		cfg:    cfg,
		clk:    cfg.Clock,
		cell:   cell,
		client: simnet.NewEndpoint("phone", 1024),
		dc:     simnet.NewEndpoint("datacenter", 4096),
		stopCh: make(chan struct{}),
		wake:   make(chan struct{}, 1),
		obs:    obs.NewRegistry(),
	}
	d.sink = d.obs.Hist(obs.SinkLatency, "")
	cell.Attach(d.client)
	cell.AttachRated(d.dc, 1e9, 1e9)
	return d
}

// Start launches the upload and server loops.
func (d *deployment) Start() {
	d.OpenWindow()
	d.wg.Add(2)
	go d.uploadLoop()
	go d.serverLoop()
}

// Stop shuts the deployment down.
func (d *deployment) Stop() {
	d.once.Do(func() { close(d.stopCh) })
	d.wg.Wait()
}

// Offer enqueues one sensed tuple for upload. A full queue drops the oldest
// entry — a camera overwrites stale frames rather than growing a backlog
// without bound.
func (d *deployment) Offer(size int) {
	d.mu.Lock()
	if len(d.queue) >= d.cfg.QueueCap {
		d.queue = d.queue[1:]
		d.dropped++
	}
	d.queue = append(d.queue, upload{size: size, created: d.clk.Now()})
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// uploadLoop ships queued tuples over the uplink one at a time.
func (d *deployment) uploadLoop() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		var job *upload
		if len(d.queue) > 0 {
			j := d.queue[0]
			d.queue = d.queue[1:]
			job = &j
		}
		d.mu.Unlock()
		if job == nil {
			select {
			case <-d.wake:
				continue
			case <-d.stopCh:
				return
			}
		}
		if err := d.cell.Send("phone", "datacenter", simnet.ClassData, job.size, *job); err != nil {
			return
		}
	}
}

// serverLoop processes uploads on the data center and pushes results back.
func (d *deployment) serverLoop() {
	defer d.wg.Done()
	for {
		select {
		case m := <-d.dc.Inbox():
			job, ok := m.Payload.(upload)
			if !ok {
				continue
			}
			d.clk.Sleep(time.Duration(float64(d.cfg.PipelineCost) / d.cfg.ServerSpeedup))
			// Result pushed to the subscribing phone over its downlink.
			if err := d.cell.Send("datacenter", "phone", simnet.ClassData, resultBytes, nil); err != nil {
				return
			}
			d.sink.Observe(int64(d.clk.Now() - job.created))
		case <-d.stopCh:
			return
		}
	}
}

// OpenWindow starts a measurement window at the current simulated time:
// Report counts results from here.
func (d *deployment) OpenWindow() {
	d.mu.Lock()
	d.winStart = d.clk.Now()
	d.mu.Unlock()
	d.sink.Reset()
}

// Report views the measurement window at simulated time now.
func (d *deployment) Report(now time.Duration) metrics.Report {
	d.mu.Lock()
	window := now - d.winStart
	d.mu.Unlock()
	rep := metrics.Report{
		Scheme:      "server",
		Tuples:      int64(d.sink.Count()),
		Window:      window,
		MeanLatency: time.Duration(d.sink.Mean()),
		P95Latency:  time.Duration(d.sink.Percentile(95)),
	}
	if window > 0 {
		rep.ThroughputTPS = float64(rep.Tuples) / window.Seconds()
	}
	return rep
}
