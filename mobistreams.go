// Package mobistreams is a reliable distributed stream processing system
// for mobile devices, reproducing Wang & Peh, "MobiStreams" (IPDPS 2014).
//
// A MobiStreams deployment is a set of regions — clusters of phones in
// ad-hoc WiFi range running one DSPS each — cascaded over the cellular
// network and coordinated by a lightweight controller. Fault tolerance
// comes from token-triggered checkpointing (source-coordinated consistent
// snapshots with source preservation) and broadcast-based checkpointing
// (multi-phase UDP dissemination of state to every phone), so a region
// survives burst failures and phone departures.
//
// Quick start — declare a pipeline with the typed stream builder, compile
// it onto a region, ingest readings:
//
//	p, _ := stream.From[float64]("sensor").
//		Map("smooth", func(v float64) float64 { return v * 0.5 }).
//		Window("avg", 16).
//		Sink("out", func(v float64) { fmt.Println(v) }).
//		Build()
//	sys := mobistreams.NewSystem(mobistreams.SystemConfig{Speedup: 50})
//	region, _ := sys.AddRegion(mobistreams.RegionSpec{ID: "demo", Pipeline: p, Scheme: mobistreams.MS, Phones: 5})
//	sys.Start()
//	region.Ingest("sensor", 21.5, 1024, "reading")
//
// Custom operators implement Operator and enter a pipeline through the
// stream builder's Via, Through, Merge and Source stages. Process receives
// an *OperatorContext whose Emit/EmitTo push results straight into the
// node's compiled pipeline (no per-tuple slice allocation), plus simulated
// time, one-shot timers and a per-key state handle. Inside Process and
// OnTimer, derive output tuples with ctx.Clone:
//
//	func (o *smoother) Process(ctx *mobistreams.OperatorContext, from string, t *mobistreams.Tuple) error {
//		o.ewma = 0.8*o.ewma + 0.2*t.Value.(float64)
//		out := ctx.Clone(t)
//		out.Value = o.ewma
//		ctx.Emit(out)
//		return nil
//	}
//
// Assigning a float64 to out.Value boxes it: one heap allocation per
// result. A hot operator inside this module carves the box instead, from a
// tuple.Boxes[float64] field it owns (out.Value = o.boxes.Box(o.ewma)), as
// the stream builder's Map stages and the stdlib Window, TimeWindow and
// Aggregate do; the value is the same to every reader.
//
// The internal packages implement the substrates: simulated WiFi/cellular
// networks, the phone model, the node/region/controller runtimes, the two
// driving applications (bus capacity prediction, SignalGuru) and the
// benchmark harness that regenerates the paper's tables and figures.
package mobistreams

import (
	"fmt"
	"sync"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/metrics"
	"mobistreams/internal/node"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/stream"
)

// Re-exported building blocks: applications write operators with these
// and declare their dataflow with the stream package.
type (
	// Operator is the unit of work placed on a phone: identity, cost,
	// Process and snapshotable state; see internal/operator.
	Operator = operator.Operator
	// OperatorContext is the per-operator emit-context: Emit/EmitTo,
	// simulated time, one-shot timers and the per-key state handle.
	OperatorContext = operator.Context
	// OperatorBase provides defaults for stateless operators.
	OperatorBase = operator.Base
	// Tuple is the unit of data in a stream.
	Tuple = tuple.Tuple
	// Scheme selects a fault-tolerance scheme.
	Scheme = ft.Scheme
	// Report summarises a region's metrics.
	Report = metrics.Report
)

// Fault-tolerance schemes (§IV-B).
var (
	// Base runs without fault tolerance.
	Base = ft.BaseScheme
	// Rep2 is active standby replication.
	Rep2 = ft.Rep2Scheme
	// Local checkpoints to local storage only (upper bound baseline).
	Local = ft.LocalScheme
	// MS is MobiStreams: token-triggered + broadcast-based checkpointing.
	MS = ft.MSScheme
)

// Dist returns the dist-n distributed checkpointing scheme.
func Dist(n int) Scheme { return ft.Dist(n) }

// ParseScheme parses "base", "rep-2", "local", "dist-3" or "ms".
func ParseScheme(s string) (Scheme, error) { return ft.Parse(s) }

// SystemConfig parameterises a deployment.
type SystemConfig struct {
	// Speedup scales simulated time against wall time (default 1: real
	// time; experiments use hundreds).
	Speedup float64
	// CheckpointPeriod is the controller's checkpoint interval (§IV:
	// 5 minutes; default 5 minutes).
	CheckpointPeriod time.Duration
	// AdaptivePlacement enables each region's adaptive loop. Every 5 s the
	// controller snapshots the region's channel topology and battery,
	// backlog and trajectory telemetry, live-migrates slots off at-risk
	// phones before they fail or depart, packs communicating slots into
	// one WiFi channel and keeps a warm spare phone per channel
	// (proactive, in addition to the paper's reactive recovery, which
	// reclaims the warm spares when it needs a replacement). Every 1 s it
	// splits a keyed group that declares WithMaxParallelism headroom when
	// an active instance backs up, and merges a cold instance back.
	AdaptivePlacement bool
}

// RegionSpec declares one region.
type RegionSpec struct {
	ID string
	// Pipeline is the region's dataflow: its graph, operators, latency
	// budget and typed sink callbacks.
	Pipeline *stream.Pipeline
	Scheme   Scheme
	// Phones is the region population (slots plus idle spares).
	Phones int
}

// The region's ad-hoc WiFi: the paper's 3 Mbps of shared airtime and 2%
// UDP loss (§IV).
const (
	wifiBps  = 3e6
	wifiLoss = 0.02
)

// System is a running MobiStreams deployment.
type System struct {
	d *deploy.Deployment
}

// Region wraps one region's runtime.
type Region struct {
	sys *System
	r   *region.Region

	mu         sync.Mutex
	downstream []cascade
	onOutput   func(t *Tuple)
}

type cascade struct {
	to    *Region
	srcOp string
}

// NewSystem creates a deployment skeleton: clock, cellular network and
// controller.
func NewSystem(cfg SystemConfig) *System {
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	cc := controller.Config{CheckpointPeriod: cfg.CheckpointPeriod, Adaptive: cfg.AdaptivePlacement}
	return &System{d: deploy.New(cfg.Speedup, simnet.CellularConfig{}, cc)}
}

// Clock returns the system clock; Sleep and Now operate in simulated time.
func (s *System) Clock() *clock.Scaled { return s.d.Clock }

// AddRegion builds a region. Call before Start: after Start it returns an
// error, since the controller would never coordinate the region.
func (s *System) AddRegion(spec RegionSpec) (*Region, error) {
	p := spec.Pipeline
	if p == nil || p.Graph() == nil {
		return nil, fmt.Errorf("mobistreams: region %q needs a pipeline from stream's Build", spec.ID)
	}
	wrapped := &Region{sys: s}
	if p.HasOutput() {
		wrapped.onOutput = p.Output
	}
	r, err := s.d.AddRegion(region.Config{
		ID:           spec.ID,
		Graph:        p.Graph(),
		Registry:     p.Registry(),
		Scheme:       spec.Scheme,
		Phones:       spec.Phones,
		WiFi:         simnet.WiFiConfig{BitsPerSecond: wifiBps, LossProb: wifiLoss},
		QoS:          node.QoS{LatencyBudget: p.LatencyBudget()},
		OnSinkOutput: wrapped.publish,
	})
	if err != nil {
		return nil, err
	}
	wrapped.r = r
	return wrapped, nil
}

// Connect cascades one region's results into a downstream region's source
// operator over the cellular network (Fig. 4's inter-region arrows).
func (s *System) Connect(from, to *Region, srcOp string) {
	from.mu.Lock()
	from.downstream = append(from.downstream, cascade{to: to, srcOp: srcOp})
	from.mu.Unlock()
}

// Start launches every region and the controller.
func (s *System) Start() { s.d.Start() }

// Stop shuts the deployment down.
func (s *System) Stop() { s.d.Stop() }

// publish handles one deduplicated sink result: the app callback runs
// first, then the result cascades to downstream regions over cellular.
func (rg *Region) publish(publisher simnet.NodeID, t *tuple.Tuple) {
	rg.mu.Lock()
	cb := rg.onOutput
	downs := append([]cascade(nil), rg.downstream...)
	rg.mu.Unlock()
	if cb != nil {
		cb(t)
	}
	for _, d := range downs {
		slot := d.to.r.Graph().SlotOf(d.srcOp)
		target, ok := d.to.r.Placement(slot)
		if !ok {
			continue
		}
		msg := node.InterRegionMsg{SrcOp: d.srcOp, Kind: t.Kind, Size: t.Size, Value: t.Value}
		rg.sys.d.Cell.Send(publisher, target, simnet.ClassData, t.Size, msg)
	}
}

// Ingest admits one externally sensed tuple at a source operator.
func (rg *Region) Ingest(srcOp string, value interface{}, size int, kind string) {
	rg.r.Ingest(srcOp, value, size, kind)
}

// Report summarises the region's metrics so far.
func (rg *Region) Report() Report {
	return rg.r.Report(rg.sys.d.Clock.Now())
}

// Outputs reports how many unique results the region has published.
func (rg *Region) Outputs() int64 { return int64(rg.r.Outputs()) }

// MeanLatency reports the mean end-to-end latency in simulated time.
func (rg *Region) MeanLatency() time.Duration { return time.Duration(rg.r.SinkLatency().Mean()) }

// InjectFailure crashes the phone currently hosting a slot (fault
// injection for tests and demos). Detection and recovery happen through
// the protocol.
func (rg *Region) InjectFailure(slot string) error {
	pid, ok := rg.r.Placement(slot)
	if !ok {
		return fmt.Errorf("mobistreams: no placement for slot %q", slot)
	}
	rg.r.FailPhone(pid)
	return nil
}

// InjectDeparture makes the phone hosting a slot leave the region (GPS
// notifies the controller, §III-E).
func (rg *Region) InjectDeparture(slot string) error {
	pid, ok := rg.r.Placement(slot)
	if !ok {
		return fmt.Errorf("mobistreams: no placement for slot %q", slot)
	}
	rg.r.DepartPhone(pid)
	rg.sys.d.Ctrl.NotifyDeparture(rg.r.ID(), pid)
	return nil
}

// Recoveries reports how many recoveries the region has undergone.
func (rg *Region) Recoveries() int { return rg.sys.d.Ctrl.Recoveries(rg.r.ID()) }

// Migrations reports how many planned live migrations the planner has
// completed for the region.
func (rg *Region) Migrations() int { return rg.sys.d.Ctrl.Migrations(rg.r.ID()) }

// Committed reports the latest committed checkpoint version.
func (rg *Region) Committed() uint64 { return rg.sys.d.Ctrl.Committed(rg.r.ID()) }

// TriggerCheckpoint starts a checkpoint round once the region's controller
// loop is free (the periodic rounds run regardless) and returns its
// version. Call it only after Start.
func (rg *Region) TriggerCheckpoint() uint64 {
	return rg.sys.d.Ctrl.TriggerCheckpoint(rg.r.ID())
}

// Dead reports whether the region was stopped and bypassed.
func (rg *Region) Dead() bool { return rg.sys.d.Ctrl.RegionDead(rg.r.ID()) }
