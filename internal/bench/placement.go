package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/workload"
)

// PlacementScenario configures one placement-planner experiment run: several
// independent identity pipelines spread over a multi-channel WiFi region
// under Poisson churn, run either with the paper's reactive recovery alone
// or with the topology-aware placement planner. Round-robin channel
// assignment scatters every pipeline across channels at start, so every hop
// initially burns two cells of airtime — the structural waste the planner's
// pack-to-empty pass exists to remove, and reactive recovery never sees.
type PlacementScenario struct {
	// Planner runs the placement planner; false is the reactive arm (no
	// proactive migration at all — the same contrast the churn experiment
	// draws).
	Planner bool
	// Phones is the region population (default 128).
	Phones int
	// Channels is the WiFi channel/AP domain count (default 4).
	Channels int
	// Pipelines is the number of independent 3-slot chains (default 4).
	Pipelines int
	// Speedup is the clock scale (default 150). Plan execution is paced
	// against simulated time — a migration's transfer deadline is 60
	// simulated seconds — so the speedup bounds how much wall-clock
	// scheduling stall a plan step can absorb before it spuriously times
	// out and aborts the plan. 150 keeps the whole comparison under ~15 s
	// of wall time while giving each step hundreds of milliseconds of
	// slack on a contended CI runner.
	Speedup float64
	// Warmup precedes the measurement window (default one checkpoint
	// period); Measure is the churn window (default 120 s); Drain flushes
	// the tail (default 15 s).
	CheckpointPeriod time.Duration
	Warmup           time.Duration
	Measure          time.Duration
	Drain            time.Duration
	// SourcePeriod is the ingest interval, rotated across pipelines
	// (default 700 ms).
	SourcePeriod time.Duration
	// MeanLeave / MeanJoin are the Poisson churn means (defaults 20 s /
	// 45 s); CliffShare splits leaves between battery cliffs and commuter
	// walks (default 0.6).
	MeanLeave  time.Duration
	MeanJoin   time.Duration
	CliffShare float64
	// WalkSpeed (default 4 m/s) and RadiusM (default 120 m) shape the
	// commuter trace; BatteryJoules (default 150) and CliffFraction
	// (default 0.08) shape the battery cliff.
	WalkSpeed     float64
	RadiusM       float64
	BatteryJoules float64
	CliffFraction float64
	WiFiBps       float64
	WiFiLoss      float64
	Seed          int64
}

func (s *PlacementScenario) applyDefaults() {
	if s.Phones <= 0 {
		s.Phones = 128
	}
	if s.Channels <= 0 {
		s.Channels = 4
	}
	if s.Pipelines <= 0 {
		s.Pipelines = 4
	}
	if s.Speedup <= 0 {
		s.Speedup = 150
	}
	if s.CheckpointPeriod <= 0 {
		s.CheckpointPeriod = 30 * time.Second
	}
	if s.Warmup <= 0 {
		s.Warmup = s.CheckpointPeriod
	}
	if s.Measure <= 0 {
		s.Measure = 120 * time.Second
	}
	if s.Drain <= 0 {
		s.Drain = 15 * time.Second
	}
	if s.SourcePeriod <= 0 {
		s.SourcePeriod = 700 * time.Millisecond
	}
	if s.MeanLeave <= 0 {
		s.MeanLeave = 20 * time.Second
	}
	if s.MeanJoin <= 0 {
		s.MeanJoin = 45 * time.Second
	}
	if s.CliffShare <= 0 {
		s.CliffShare = 0.6
	}
	if s.WalkSpeed <= 0 {
		s.WalkSpeed = 4
	}
	if s.RadiusM <= 0 {
		s.RadiusM = 120
	}
	if s.BatteryJoules <= 0 {
		s.BatteryJoules = 150
	}
	if s.CliffFraction <= 0 {
		s.CliffFraction = 0.08
	}
	if s.WiFiBps <= 0 {
		s.WiFiBps = 3e6
	}
	if s.WiFiLoss == 0 {
		s.WiFiLoss = 0.02
	}
}

// PlacementOutcome is one placement run's result, JSON-tagged for the CI
// artifact.
type PlacementOutcome struct {
	Mode              string    `json:"mode"` // "reactive" or "planner"
	Ingested          int64     `json:"ingested"`
	Delivered         int64     `json:"delivered"`
	Lost              int64     `json:"tuples_lost"`
	Duplicates        int64     `json:"duplicates"`
	ThroughputTPS     float64   `json:"throughput_tps"`
	DowntimeSec       float64   `json:"downtime_sec"`
	Migrations        int       `json:"migrations"`
	Recoveries        int       `json:"recoveries"`
	PlanCommits       int       `json:"plan_commits"`
	PlanAborts        int       `json:"plan_aborts"`
	CrossChannelShare float64   `json:"cross_channel_share"`
	ChannelAirtimeSec []float64 `json:"channel_airtime_sec"`
	Departures        int       `json:"departures"`
	Joins             int       `json:"joins"`
	Dead              bool      `json:"region_dead"`
}

// placementGraph builds n independent identity chains c<i>a -> c<i>b ->
// c<i>c, one operator per slot. Slot names sort chain-major, so the region's
// in-order initial placement puts each chain on consecutive phones — and
// round-robin channel assignment therefore fans every chain out across
// channels.
func placementGraph(pipelines int) (*graph.Graph, error) {
	var b graph.Builder
	for i := 1; i <= pipelines; i++ {
		src := fmt.Sprintf("S%d", i)
		mid := fmt.Sprintf("M%d", i)
		sink := fmt.Sprintf("K%d", i)
		b.AddOperator(src, fmt.Sprintf("c%da", i))
		b.AddOperator(mid, fmt.Sprintf("c%db", i))
		b.AddOperator(sink, fmt.Sprintf("c%dc", i))
		b.Chain(src, mid, sink)
	}
	return b.Build()
}

func placementRegistry(pipelines int) operator.Registry {
	clone := func(t *tuple.Tuple) *tuple.Tuple { return t.Clone() }
	mapOp := func(id string, cost time.Duration) operator.Factory {
		return func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(cost)
			return m
		}
	}
	reg := operator.Registry{}
	for i := 1; i <= pipelines; i++ {
		reg[fmt.Sprintf("S%d", i)] = mapOp(fmt.Sprintf("S%d", i), 100*time.Millisecond)
		reg[fmt.Sprintf("M%d", i)] = mapOp(fmt.Sprintf("M%d", i), 200*time.Millisecond)
		reg[fmt.Sprintf("K%d", i)] = mapOp(fmt.Sprintf("K%d", i), 100*time.Millisecond)
	}
	return reg
}

// RunPlacement executes one placement scenario to completion.
func RunPlacement(s PlacementScenario) (PlacementOutcome, error) {
	s.applyDefaults()
	g, err := placementGraph(s.Pipelines)
	if err != nil {
		return PlacementOutcome{}, err
	}
	clk := clock.NewScaled(s.Speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   0.16e6,
		DownBitsPerSecond: 0.7e6,
		Latency:           80 * time.Millisecond,
		SharedBps:         2e6,
	})
	ctrlCfg := controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: s.CheckpointPeriod,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
		ScheduleTick:     5 * time.Second,
	}
	if s.Planner {
		ctrlCfg.Planner = scheduler.NewPlanner(placement.New(placement.Config{}), nil)
	}
	ctrl := controller.New(ctrlCfg)

	gaps := &gapTracker{allowance: 5 * s.SourcePeriod}
	var measureEnd atomic.Int64
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             g,
		Registry:          placementRegistry(s.Pipelines),
		Scheme:            ft.MSScheme,
		Phones:            s.Phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: s.WiFiBps, LossProb: s.WiFiLoss, Channels: s.Channels, Seed: s.Seed},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		PhoneCfg:          phone.Config{BatteryJoules: s.BatteryJoules},
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
		RadiusM:           s.RadiusM,
		OnSinkOutput: func(_ simnet.NodeID, _ *tuple.Tuple) {
			gaps.tick(clk.Now(), time.Duration(measureEnd.Load()))
		},
	})
	if err != nil {
		return PlacementOutcome{}, err
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()

	clk.Sleep(s.Warmup)

	// Ingest: one tuple per SourcePeriod, rotated across the pipelines so
	// every chain carries identical load.
	var ingested int64
	gen := workload.NewGenerator(clk)
	gen.StartBCPBus(func(_ string, v interface{}, _ int, _ string) {
		n := atomic.AddInt64(&ingested, 1)
		src := fmt.Sprintf("S%d", int((n-1)%int64(s.Pipelines))+1)
		r.Ingest(src, v, 2048, "count")
	}, workload.BCPBusConfig{Period: s.SourcePeriod, Seed: s.Seed})

	start := clk.Now()
	end := start + s.Measure
	measureEnd.Store(int64(end))
	r.Throughput.Start(start)
	r.Latency.Reset()
	gaps.open(start)

	var churnMu sync.Mutex
	victimised := make(map[simnet.NodeID]bool)
	var joins int64
	slots := g.Slots()
	churn := workload.NewGenerator(clk)
	churn.StartChurn(workload.ChurnHooks{
		Victim: func(rng *rand.Rand) (simnet.NodeID, bool) {
			slot := slots[rng.Intn(len(slots))]
			id, ok := r.Placement(slot)
			if !ok || r.Failed(id) || r.Departed(id) {
				return "", false
			}
			churnMu.Lock()
			defer churnMu.Unlock()
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
			ctrl.NotifyDeparture(r.ID(), id)
		},
		Join: func(int) {
			r.AddPhone(phone.Config{BatteryJoules: s.BatteryJoules})
			atomic.AddInt64(&joins, 1)
		},
	}, workload.ChurnConfig{
		MeanLeave:     s.MeanLeave,
		MeanJoin:      s.MeanJoin,
		CliffShare:    s.CliffShare,
		CliffFraction: s.CliffFraction,
		WalkSpeed:     s.WalkSpeed,
		RadiusM:       s.RadiusM,
		Seed:          s.Seed,
	})

	clk.Sleep(s.Measure)
	churn.Stop()
	gen.Stop()
	clk.Sleep(s.Drain)

	mode := "reactive"
	if s.Planner {
		mode = "planner"
	}
	rep := r.Report(clk.Now())
	commits, aborts := ctrl.PlanStats("r1")
	out := PlacementOutcome{
		Mode:              mode,
		Ingested:          atomic.LoadInt64(&ingested),
		Delivered:         r.Throughput.Count(),
		Duplicates:        r.DuplicateOutputs(),
		Migrations:        ctrl.Migrations("r1"),
		Recoveries:        ctrl.Recoveries("r1"),
		PlanCommits:       commits,
		PlanAborts:        aborts,
		CrossChannelShare: rep.CrossChannelShare,
		Departures:        ctrl.Departures("r1"),
		Joins:             int(atomic.LoadInt64(&joins)),
		Dead:              ctrl.RegionDead("r1"),
	}
	for _, a := range rep.ChannelAirtime {
		out.ChannelAirtimeSec = append(out.ChannelAirtimeSec, a.Seconds())
	}
	out.Lost = out.Ingested - out.Delivered
	if out.Lost < 0 {
		out.Lost = 0
	}
	out.ThroughputTPS = float64(out.Delivered) / s.Measure.Seconds()
	out.DowntimeSec = gaps.closeAt(end).Seconds()
	r.Stop()
	ctrl.Stop()
	return out, nil
}

// PlacementComparison runs the reactive arm and the planner under an
// identical churn schedule (same seed).
func PlacementComparison(base PlacementScenario) ([]PlacementOutcome, error) {
	var rows []PlacementOutcome
	for _, planner := range []bool{false, true} {
		s := base
		s.Planner = planner
		o, err := RunPlacement(s)
		if err != nil {
			return nil, fmt.Errorf("placement planner=%v: %w", planner, err)
		}
		rows = append(rows, o)
	}
	return rows, nil
}

// PlacementReport is the machine-readable experiment artifact
// (BENCH_placement.json in CI).
type PlacementReport struct {
	Experiment string             `json:"experiment"`
	Seed       int64              `json:"seed"`
	Phones     int                `json:"phones"`
	Channels   int                `json:"channels"`
	MeasureSec float64            `json:"measure_sec"`
	Rows       []PlacementOutcome `json:"rows"`
}

// WritePlacementJSON emits the placement comparison as indented JSON.
func WritePlacementJSON(w io.Writer, base PlacementScenario, rows []PlacementOutcome) error {
	base.applyDefaults()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(PlacementReport{
		Experiment: "placement: reactive recovery vs topology-aware planner",
		Seed:       base.Seed,
		Phones:     base.Phones,
		Channels:   base.Channels,
		MeasureSec: base.Measure.Seconds(),
		Rows:       rows,
	})
}

// WritePlacementTable renders the comparison for humans.
func WritePlacementTable(w io.Writer, rows []PlacementOutcome) {
	fmt.Fprintln(w, "Placement — reactive recovery vs topology-aware planner")
	fmt.Fprintf(w, "%-8s %9s %10s %5s %9s %11s %11s %7s %7s %10s\n",
		"mode", "ingested", "delivered", "lost", "downtime", "migrations", "recoveries", "commit", "abort", "cross")
	for _, o := range rows {
		fmt.Fprintf(w, "%-8s %9d %10d %5d %8.1fs %11d %11d %7d %7d %9.1f%%\n",
			o.Mode, o.Ingested, o.Delivered, o.Lost, o.DowntimeSec,
			o.Migrations, o.Recoveries, o.PlanCommits, o.PlanAborts, o.CrossChannelShare*100)
	}
}
