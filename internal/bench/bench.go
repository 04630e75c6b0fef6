// Package bench is the experiment harness: it assembles a full MobiStreams
// system (region, controller, workload) for one scenario, runs it at a
// scaled clock, and reports the metrics the paper's tables and figures are
// built from. The experiments scale the paper's 5-minute checkpoint period
// down (default 60 simulated seconds) with state sizes calibrated to keep
// the airtime fractions — the figures compare shapes, not testbed-absolute
// numbers.
package bench

import (
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/metrics"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/workload"

	bcpapp "mobistreams/internal/apps/bcp"
	sgapp "mobistreams/internal/apps/signalguru"
)

// App selects the driving application.
type App int

const (
	// BCP is Bus Capacity Prediction.
	BCP App = iota
	// SG is SignalGuru.
	SG
)

func (a App) String() string {
	if a == BCP {
		return "BCP"
	}
	return "SignalGuru"
}

// Scenario configures one experiment run.
type Scenario struct {
	App    App
	Scheme ft.Scheme
	// Phones is the region population: the graph's 8 slots plus idle
	// spares that store checkpoint copies and stand in as replacements
	// (default 16 = 8 active + 8 idle; Fig. 4 shows idle members).
	Phones int
	// Channels splits the WiFi medium into channel/AP domains (default 1,
	// a single shared cell).
	Channels int
	// Speedup is the clock scale (default 400: one simulated minute
	// takes 150 ms of wall time).
	Speedup float64
	// CheckpointPeriod (default 60 s; the paper's 5 min scaled by 1/5
	// with state sizes scaled to preserve airtime fractions).
	CheckpointPeriod time.Duration
	// Warmup runs before the measurement window opens (default one
	// checkpoint period).
	Warmup time.Duration
	// Measure is the measurement window (default two checkpoint
	// periods).
	Measure time.Duration
	// FailCount phones crash simultaneously halfway into the window;
	// DepartCount phones leave instead.
	FailCount   int
	DepartCount int
	Seed        int64
	// Obs is the registry the region records into (msrun serves it with
	// -http); nil gives the region its own.
	Obs *obs.Registry
}

func (s *Scenario) applyDefaults() {
	if s.Phones <= 0 {
		s.Phones = 16
	}
	if s.Speedup <= 0 {
		s.Speedup = 200
	}
	if s.CheckpointPeriod <= 0 {
		s.CheckpointPeriod = 60 * time.Second
	}
	if s.Warmup <= 0 {
		s.Warmup = s.CheckpointPeriod
	}
	if s.Measure <= 0 {
		s.Measure = 2 * s.CheckpointPeriod
	}
}

// Outcome is one run's result.
type Outcome struct {
	metrics.Report
	App        App
	Window     time.Duration
	Dead       bool
	Recoveries int
	Departures int
	Duplicates int64
}

// appBundle wires an application's graph, registry and feeds.
type appBundle struct {
	graph    *graph.Graph
	registry operator.Registry
	start    func(g *workload.Generator, push workload.Push, seed int64)
}

func buildApp(a App, seed int64) (appBundle, error) {
	switch a {
	case BCP:
		g, err := bcpapp.Graph()
		if err != nil {
			return appBundle{}, err
		}
		reg := bcpapp.Registry(bcpapp.Params{})
		return appBundle{graph: g, registry: reg, start: func(gen *workload.Generator, push workload.Push, seed int64) {
			gen.StartBCPCamera(push, workload.BCPCameraConfig{Period: 2000 * time.Millisecond, Seed: seed})
			gen.StartBCPBus(push, workload.BCPBusConfig{Period: 30 * time.Second, CorruptEvery: 10, Seed: seed})
		}}, nil
	default:
		g, err := sgapp.Graph()
		if err != nil {
			return appBundle{}, err
		}
		reg := sgapp.Registry(sgapp.Params{})
		return appBundle{graph: g, registry: reg, start: func(gen *workload.Generator, push workload.Push, seed int64) {
			gen.StartSGCamera(push, workload.SGCameraConfig{Period: 1300 * time.Millisecond, Seed: seed})
			gen.StartSGUpstream(push, workload.SGUpstreamConfig{Period: 30 * time.Second, Seed: seed})
		}}, nil
	}
}

// Run executes one scenario to completion.
func Run(s Scenario) (Outcome, error) {
	s.applyDefaults()
	app, err := buildApp(s.App, s.Seed)
	if err != nil {
		return Outcome{}, err
	}

	d := deploy.New(s.Speedup, paperCell, controller.Config{CheckpointPeriod: s.CheckpointPeriod})
	r, err := d.AddRegion(region.Config{
		ID:       "r1",
		Graph:    app.graph,
		Registry: app.registry,
		Scheme:   s.Scheme,
		Phones:   s.Phones,
		WiFi:     simnet.WiFiConfig{BitsPerSecond: paperWiFiBps, LossProb: paperWiFiLoss, Channels: s.Channels, Seed: s.Seed},
		Obs:      s.Obs,
	})
	if err != nil {
		return Outcome{}, err
	}
	d.Start()
	clk, ctrl := d.Clock, d.Ctrl

	gen := workload.NewGenerator(clk)
	app.start(gen, r.Ingest, s.Seed)

	// Warm up, then open the measurement window.
	clk.Sleep(s.Warmup)
	r.OpenWindow()
	netBefore := snapshotNet(r)
	srcBefore, edgeBefore := r.PreservedBytes()

	if s.FailCount > 0 || s.DepartCount > 0 {
		clk.Sleep(s.Measure / 2)
		injectFaults(r, ctrl, s)
		clk.Sleep(s.Measure - s.Measure/2)
	} else {
		clk.Sleep(s.Measure)
	}

	now := clk.Now()
	rep := r.Report(now)
	netAfter := snapshotNet(r)
	srcAfter, edgeAfter := r.PreservedBytes()
	rep.CheckpointNet = netAfter.ckpt - netBefore.ckpt
	rep.ReplicationNet = netAfter.repl - netBefore.repl
	rep.DataBytes = netAfter.data - netBefore.data
	rep.PreservedBytes = (srcAfter - srcBefore) + (edgeAfter - edgeBefore)

	out := Outcome{
		Report:     rep,
		App:        s.App,
		Window:     s.Measure,
		Dead:       ctrl.RegionDead("r1"),
		Recoveries: ctrl.Recoveries("r1"),
		Departures: ctrl.Departures("r1"),
		Duplicates: r.DuplicateOutputs(),
	}
	gen.Stop()
	d.Stop()
	return out, nil
}

type netSnap struct{ data, ckpt, repl int64 }

func snapshotNet(r *region.Region) netSnap {
	c := &r.WiFi().Counters
	return netSnap{
		data: c.Bytes(simnet.ClassData),
		ckpt: c.Bytes(simnet.ClassCheckpoint) + c.Bytes(simnet.ClassBitmap),
		repl: c.Bytes(simnet.ClassReplication),
	}
}

// injectFaults crashes or departs phones hosting slots, computing slots
// first, then the sink slot, then sources — so small k hits the middle of
// the pipeline as in Fig. 5's narrative.
func injectFaults(r *region.Region, ctrl *controller.Controller, s Scenario) {
	order := victimOrder(r)
	k := s.FailCount
	depart := false
	if s.DepartCount > 0 {
		k = s.DepartCount
		depart = true
	}
	if k > len(order) {
		k = len(order)
	}
	for i := 0; i < k; i++ {
		slot := order[i]
		pid, ok := r.Placement(slot)
		if !ok {
			continue
		}
		if depart {
			r.DepartPhone(pid)
			ctrl.NotifyDeparture(r.ID(), pid)
		} else {
			r.FailPhone(pid)
		}
	}
}

// victimOrder lists slots: computing first, then sinks, then sources.
func victimOrder(r *region.Region) []string {
	g := r.Graph()
	isSrc := make(map[string]bool)
	for _, s := range g.SourceSlots() {
		isSrc[s] = true
	}
	isSink := make(map[string]bool)
	for _, s := range g.SinkSlots() {
		isSink[s] = true
	}
	var computing, sinks, sources []string
	for _, s := range g.Slots() {
		switch {
		case isSrc[s]:
			sources = append(sources, s)
		case isSink[s]:
			sinks = append(sinks, s)
		default:
			computing = append(computing, s)
		}
	}
	out := append(computing, sinks...)
	return append(out, sources...)
}
