package server

import (
	"fmt"
	"testing"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/obs"
)

func newTestDeployment(up float64) (*deployment, *clock.Scaled) {
	// Speedup 250 keeps the shortest paced step (a ~4.5 s upload in the
	// uplink-bound test) around 18 ms of wall time, long enough that
	// timer wake-up overshoot — which can reach a couple of milliseconds
	// on a busy or tickless host — stays a few percent of each step
	// instead of halving the measured rate.
	clk := clock.NewScaled(250)
	d := New(Config{
		Clock:        clk,
		UplinkBps:    up,
		DownlinkBps:  0.7e6,
		PipelineCost: 8 * time.Second,
		QueueCap:     4,
	})
	return d, clk
}

func TestUplinkBoundThroughput(t *testing.T) {
	// At speedup 2000 the 200 simulated seconds pass in ~100 ms of wall
	// time, so a single OS scheduling stall swallows tens of simulated
	// seconds of offers and sinks the measured rate. Retry before
	// declaring a regression: a genuine uplink-model bug fails every
	// attempt, a host hiccup does not. The drop check stays hard — an
	// overloaded queue must shed stale frames regardless of load.
	const attempts = 3
	var lastErr string
	for i := 0; i < attempts; i++ {
		d, clk := newTestDeployment(0.32e6) // 40 KB/s
		d.Start()
		// 180 KB tuples: ~4.5 s per upload; offer one per 2 s -> uplink bound.
		stop := make(chan struct{})
		go func() {
			tick := clk.NewTimer(2 * time.Second)
			defer tick.Stop()
			for ; ; tick.Reset(2 * time.Second) {
				select {
				case <-tick.C():
					d.Offer(180 << 10)
				case <-stop:
					return
				}
			}
		}()
		clk.Sleep(200 * time.Second)
		close(stop)
		rate := d.Report(clk.Now()).ThroughputTPS
		dropped := d.Dropped()
		d.Stop()
		if dropped == 0 {
			t.Fatal("overloaded queue should drop stale frames")
		}
		// Uplink capacity: 40960 B/s / 184320 B = 0.222 t/s.
		if rate >= 0.15 && rate <= 0.3 {
			return
		}
		lastErr = fmt.Sprintf("rate = %.3f t/s, want ~0.22 (uplink-bound)", rate)
	}
	t.Fatal(lastErr)
}

func TestFastUplinkIsComputeOrArrivalBound(t *testing.T) {
	// Speedup 100 keeps the 1 s arrival period at 10 ms of wall time;
	// at higher speedups a millisecond of timer overshoot per tick
	// stretches the effective arrival period enough to halve the
	// measured arrival-bound rate.
	clk := clock.NewScaled(100)
	d := New(Config{
		Clock:         clk,
		UplinkBps:     80e6,
		DownlinkBps:   80e6,
		PipelineCost:  8 * time.Second,
		ServerSpeedup: 20, // 0.4 s per tuple on the server
	})
	d.Start()
	defer d.Stop()
	stop := make(chan struct{})
	go func() {
		tick := clk.NewTimer(1 * time.Second)
		defer tick.Stop()
		for ; ; tick.Reset(1 * time.Second) {
			select {
			case <-tick.C():
				d.Offer(180 << 10)
			case <-stop:
				return
			}
		}
	}()
	clk.Sleep(60 * time.Second)
	close(stop)
	rate := d.Report(clk.Now()).ThroughputTPS
	if rate < 0.6 {
		t.Fatalf("fast-uplink rate = %.3f, want ~1 t/s (arrival bound)", rate)
	}
	if d.Dropped() != 0 {
		t.Fatalf("fast uplink dropped %d", d.Dropped())
	}
}

func TestLatencyIncludesQueueing(t *testing.T) {
	d, clk := newTestDeployment(0.016e6) // 2 KB/s: ~90 s per 180 KB tuple
	d.Start()
	defer d.Stop()
	for i := 0; i < 4; i++ {
		d.Offer(180 << 10)
	}
	clk.Sleep(500 * time.Second)
	rep := d.Report(clk.Now())
	if rep.Scheme != "server" || rep.Tuples == 0 {
		t.Fatalf("nothing processed: report = %+v", rep)
	}
	if rep.MeanLatency < 60*time.Second {
		t.Fatalf("mean latency = %v, want >= 60s on a 2 KB/s uplink", rep.MeanLatency)
	}
	if got := d.Obs().Hist(obs.SinkLatency, "").Count(); got != uint64(rep.Tuples) {
		t.Fatalf("sink family count %d != report tuples %d", got, rep.Tuples)
	}
}

// Dropped reports tuples dropped from the full upload queue.
func (d *deployment) Dropped() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// Obs is the deployment's observability registry.
func (d *deployment) Obs() *obs.Registry { return d.obs }
