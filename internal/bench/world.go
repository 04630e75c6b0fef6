package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
	"mobistreams/internal/workload"
)

// paperCell is the 3G link every scenario but elastic runs its controller
// traffic over.
var paperCell = simnet.CellularConfig{
	UpBitsPerSecond:   0.16e6,
	DownBitsPerSecond: 0.7e6,
	Latency:           80 * time.Millisecond,
	SharedBps:         2e6,
}

// paperWiFi is the shared medium of every scenario that does not size its
// own: 3 Mbps (the middle of the paper's 1-5 Mbps range, per channel) with
// 2% UDP loss.
const (
	paperWiFiBps  = 3e6
	paperWiFiLoss = 0.02
)

// worldConfig is what differs between scenarios; everything else about the
// deployment is fixed by newWorld.
type worldConfig struct {
	Speedup          float64
	Cell             simnet.CellularConfig
	CheckpointPeriod time.Duration
	// Planner puts the placement planner on the controller's 5 s tick.
	Planner bool
	// Region is the scenario's half of the region config; newWorld fills in
	// ID, Clock, Cell, ControllerID and Broadcast.
	Region region.Config
}

// world is one simulated deployment: a scaled clock, the cellular uplink, a
// controller with the paper's 30 s ping / 10 s timeout / 2 s debounce, and
// the single region "r1" it manages.
type world struct {
	clk  *clock.Scaled
	ctrl *controller.Controller
	r    *region.Region
}

func newWorld(c worldConfig) (*world, error) {
	clk := clock.NewScaled(c.Speedup)
	cell := simnet.NewCellular(clk, c.Cell)
	cc := controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: c.CheckpointPeriod,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
		ScheduleTick:     5 * time.Second,
	}
	if c.Planner {
		cc.Planner = scheduler.NewPlanner(placement.New(placement.Config{}), nil)
	}
	ctrl := controller.New(cc)
	rc := c.Region
	rc.ID = "r1"
	rc.Clock = clk
	rc.Cell = cell
	rc.ControllerID = ctrl.ID()
	rc.Broadcast = broadcast.Config{BlockSize: 1024}
	r, err := region.New(rc)
	if err != nil {
		return nil, err
	}
	ctrl.AddRegion(r)
	return &world{clk: clk, ctrl: ctrl, r: r}, nil
}

func (w *world) start() {
	w.r.Start()
	w.ctrl.Start()
}

func (w *world) stop() {
	w.r.Stop()
	w.ctrl.Stop()
}

// ingestBus feeds the region one 2 KB "count" tuple per period from the BCP
// bus workload; src names the source operator of the n-th tuple (n from 1).
// The counter is the number ingested so far.
func (w *world) ingestBus(period time.Duration, seed int64, src func(n int64) string) (*workload.Generator, *atomic.Int64) {
	var ingested atomic.Int64
	gen := workload.NewGenerator(w.clk)
	gen.StartBCPBus(func(_ string, v interface{}, _ int, _ string) {
		w.r.Ingest(src(ingested.Add(1)), v, 2048, "count")
	}, workload.BCPBusConfig{Period: period, Seed: seed})
	return gen, &ingested
}

// startChurn runs Poisson leaves (battery cliffs and commuter walks over the
// range boundary) against the phones hosting slots, plus Poisson joins of
// fresh phones. The counter is the number of joins so far.
func (w *world) startChurn(cfg workload.ChurnConfig, battery float64) (*workload.Generator, *atomic.Int64) {
	r := w.r
	var mu sync.Mutex
	victimised := make(map[simnet.NodeID]bool)
	var joins atomic.Int64
	slots := r.Graph().Slots()
	churn := workload.NewGenerator(w.clk)
	churn.StartChurn(workload.ChurnHooks{
		Victim: func(rng *rand.Rand) (simnet.NodeID, bool) {
			slot := slots[rng.Intn(len(slots))]
			id, ok := r.Placement(slot)
			if !ok || r.Failed(id) || r.Departed(id) {
				return "", false
			}
			mu.Lock()
			defer mu.Unlock()
			if victimised[id] {
				return "", false
			}
			victimised[id] = true
			return id, true
		},
		Cliff: func(id simnet.NodeID, fraction float64) {
			if ph := r.Phone(id); ph != nil && !ph.Dead() {
				ph.Revive(fraction)
			}
		},
		Pos: func(id simnet.NodeID) phone.Position {
			if ph := r.Phone(id); ph != nil {
				return ph.Position()
			}
			return phone.Position{}
		},
		SetPos: func(id simnet.NodeID, p phone.Position) {
			if ph := r.Phone(id); ph != nil {
				ph.SetPosition(p)
			}
		},
		SetVel: func(id simnet.NodeID, vx, vy float64) {
			if ph := r.Phone(id); ph != nil {
				ph.SetVelocity(vx, vy)
			}
		},
		Departed: func(id simnet.NodeID) {
			r.DepartPhone(id)
			w.ctrl.NotifyDeparture(r.ID(), id)
		},
		Join: func(int) {
			r.AddPhone(phone.Config{BatteryJoules: battery})
			joins.Add(1)
		},
	}, cfg)
	return churn, &joins
}

// gapTracker accumulates sink-output downtime: simulated time inside the
// measurement window during which the inter-output gap exceeded the
// allowance (outages from recoveries, handoffs, urgent-mode detours).
type gapTracker struct {
	mu        sync.Mutex
	allowance time.Duration
	end       time.Duration // 0 until the window opens
	last      time.Duration
	downtime  time.Duration
}

func (g *gapTracker) open(now, end time.Duration) {
	g.mu.Lock()
	g.last, g.end = now, end
	g.mu.Unlock()
}

func (g *gapTracker) tick(now time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if now = min(now, g.end); now <= g.last {
		return // also: the window is not open yet
	}
	if gap := now - g.last; gap > g.allowance {
		g.downtime += gap - g.allowance
	}
	g.last = now
}

func (g *gapTracker) close() time.Duration {
	g.tick(g.end)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.downtime
}
