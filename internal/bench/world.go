package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/deploy"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/workload"
)

// paperCell is the 3G link every scenario but elastic runs its controller
// traffic over. The controller's defaults are the paper's 30 s ping, 10 s
// timeout and 2 s debounce, so scenarios pass only what differs.
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

// ingestBus feeds r one 2 KB "count" tuple per period from the BCP bus
// workload; src names the source operator of the n-th tuple (n from 1). The
// counter is the number ingested so far.
func ingestBus(d *deploy.Deployment, r *region.Region, period time.Duration, seed int64, src func(n int64) string) (*workload.Generator, *atomic.Int64) {
	var ingested atomic.Int64
	gen := workload.NewGenerator(d.Clock)
	gen.StartBCPBus(func(_ string, v interface{}, _ int, _ string) {
		r.Ingest(src(ingested.Add(1)), v, 2048, "count")
	}, workload.BCPBusConfig{Period: period, Seed: seed})
	return gen, &ingested
}

// startChurn runs Poisson leaves (battery cliffs and commuter walks over the
// range boundary) against the phones of r hosting slots, plus Poisson joins
// of fresh phones. The counter is the number of joins so far.
func startChurn(d *deploy.Deployment, r *region.Region, cfg workload.ChurnConfig, battery float64) (*workload.Generator, *atomic.Int64) {
	var mu sync.Mutex
	victimised := make(map[simnet.NodeID]bool)
	var joins atomic.Int64
	slots := r.Graph().Slots()
	churn := workload.NewGenerator(d.Clock)
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
			d.Ctrl.NotifyDeparture(r.ID(), id)
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
