// Package workload drives the applications with synthetic sensor feeds:
// camera frames at frame rate (with planted ground truth) and bus-info
// readings at bus-arrival rate. Generators push through a generic sink
// function so they work against regions, server deployments and tests
// alike.
package workload

import (
	"math/rand"
	"sync"
	"time"

	"mobistreams/internal/apps/bcp"
	"mobistreams/internal/apps/signalguru"
	"mobistreams/internal/clock"
	"mobistreams/internal/vision"
)

// Push admits one external tuple: the region.Ingest signature.
type Push func(srcOp string, value interface{}, size int, kind string)

// Generator runs feeds on their schedules until stopped.
type Generator struct {
	clk    clock.Clock
	stopCh chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// NewGenerator creates a stopped-when-told generator.
func NewGenerator(clk clock.Clock) *Generator {
	return &Generator{clk: clk, stopCh: make(chan struct{})}
}

// Stop halts all feeds and waits for them.
func (g *Generator) Stop() {
	g.once.Do(func() { close(g.stopCh) })
	g.wg.Wait()
}

// Every runs fn once per period of simulated time (with up to 10%
// deterministic jitter from seed) until the generator stops — the schedule
// custom feeds ride, e.g. driving a stream-built pipeline's source from an
// example or a test.
func (g *Generator) Every(period time.Duration, seed int64, fn func(i int)) {
	g.every(period, seed, fn)
}

// every runs fn once per period (with up to 10% deterministic jitter from
// seed) until the generator stops.
func (g *Generator) every(period time.Duration, seed int64, fn func(i int)) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		rng := rand.New(rand.NewSource(seed))
		next := func() time.Duration { return period + time.Duration(rng.Int63n(int64(period)/10+1)) }
		t := g.clk.NewTimer(next())
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-t.C():
				fn(i)
			case <-g.stopCh:
				return
			}
			t.Reset(next())
		}
	}()
}

// BCPCameraConfig parameterises the bus-stop camera feed.
type BCPCameraConfig struct {
	// Period is the frame interval (default 1.5 s: slightly above the
	// four counters' aggregate service rate so the region runs at
	// capacity).
	Period time.Duration
	// WireBytes is the tuple size on the network (default 180 KB).
	WireBytes int
	// MaxPeople bounds the planted crowd size.
	MaxPeople int
	// RealImages renders actual frames for RealCompute pipelines.
	RealImages bool
	Seed       int64
}

// StartBCPCamera feeds camera frames into source S1.
func (g *Generator) StartBCPCamera(push Push, cfg BCPCameraConfig) {
	if cfg.Period <= 0 {
		cfg.Period = 1500 * time.Millisecond
	}
	if cfg.WireBytes <= 0 {
		cfg.WireBytes = 180 << 10
	}
	if cfg.MaxPeople <= 0 {
		cfg.MaxPeople = 6
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	g.every(cfg.Period, cfg.Seed, func(i int) {
		people := rng.Intn(cfg.MaxPeople + 1)
		f := bcp.Frame{Planted: people}
		if cfg.RealImages {
			im, _ := vision.GenerateFaces(vision.Scene{W: 200, H: 150, Noise: 25, Seed: cfg.Seed + int64(i)}, people)
			f.Image = im
		}
		push("S1", f, cfg.WireBytes, "image")
	})
}

// BCPBusConfig parameterises the bus-info feed (source S0).
type BCPBusConfig struct {
	// Period is the bus arrival interval (default 60 s).
	Period time.Duration
	// CorruptEvery injects a corrupt reading every n tuples (0 = never).
	CorruptEvery int
	Seed         int64
}

// StartBCPBus feeds bus-info tuples into source S0.
func (g *Generator) StartBCPBus(push Push, cfg BCPBusConfig) {
	if cfg.Period <= 0 {
		cfg.Period = 60 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	g.every(cfg.Period, cfg.Seed, func(i int) {
		info := bcp.BusInfo{OnBoard: 10 + float64(rng.Intn(30))}
		if cfg.CorruptEvery > 0 && i%cfg.CorruptEvery == cfg.CorruptEvery-1 {
			info.Corrupt = true
		}
		push("S0", info, 512, "businfo")
	})
}

// SGCameraConfig parameterises the windshield camera feed.
type SGCameraConfig struct {
	// Period is the frame interval (default 1.1 s: the three filter
	// columns aggregate to ~0.9 frames/s).
	Period time.Duration
	// WireBytes is the tuple size (default 110 KB).
	WireBytes int
	// PhaseLen is how many frames each signal phase lasts (default 8).
	PhaseLen int
	// RealImages renders actual frames.
	RealImages bool
	Seed       int64
}

// StartSGCamera feeds intersection frames into source S1, cycling the
// planted light red -> green -> yellow on a fixed schedule so the
// grouping/prediction operators observe real transitions.
func (g *Generator) StartSGCamera(push Push, cfg SGCameraConfig) {
	if cfg.Period <= 0 {
		cfg.Period = 1100 * time.Millisecond
	}
	if cfg.WireBytes <= 0 {
		cfg.WireBytes = 110 << 10
	}
	if cfg.PhaseLen <= 0 {
		cfg.PhaseLen = 8
	}
	cycle := []vision.LightColor{vision.Red, vision.Green, vision.Yellow}
	g.every(cfg.Period, cfg.Seed, func(i int) {
		color := cycle[(i/cfg.PhaseLen)%len(cycle)]
		f := signalguru.Frame{Truth: color}
		if cfg.RealImages {
			im, _ := vision.GenerateIntersection(vision.Scene{W: 160, H: 120, Noise: 20, Seed: cfg.Seed}, color, 3)
			f.Image = im
		}
		push("S1", f, cfg.WireBytes, "image")
	})
}

// SGUpstreamConfig parameterises the previous-intersection feed (S0) used
// when a region is the first in the cascade.
type SGUpstreamConfig struct {
	Period time.Duration // default 30 s
	Seed   int64
}

// StartSGUpstream feeds synthetic upstream advisories into source S0.
func (g *Generator) StartSGUpstream(push Push, cfg SGUpstreamConfig) {
	if cfg.Period <= 0 {
		cfg.Period = 30 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	g.every(cfg.Period, cfg.Seed, func(i int) {
		adv := signalguru.Advisory{Color: vision.LightColor(i % 3), NextInSec: 20 + float64(rng.Intn(20))}
		push("S0", adv, 512, "advisory")
	})
}
