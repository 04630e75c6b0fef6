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

// ChurnScenario configures one churn experiment run: a four-slot identity
// pipeline (every ingested tuple yields exactly one sink output, so tuple
// loss is measured exactly) under Poisson phone join/leave churn, run with
// the paper's reactive recovery alone or with the placement planner's
// proactive migrations layered on top.
type ChurnScenario struct {
	Scheme      ft.Scheme
	SchedulerOn bool
	// Phones is the region population (default 10 = 4 active + 6 idle).
	Phones int
	// Speedup is the clock scale (default 300).
	Speedup float64
	// CheckpointPeriod (default 30 s) bounds reactive recovery's replay
	// window — the tuples a recovery loses to sink-side suppression.
	CheckpointPeriod time.Duration
	// Warmup runs before the measurement window (default one checkpoint
	// period, so a committed checkpoint exists when churn starts).
	Warmup time.Duration
	// Measure is the churn + measurement window (default 120 s).
	Measure time.Duration
	// Drain lets the pipeline tail flush after ingest stops (default 15 s).
	Drain time.Duration
	// SourcePeriod is the ingest interval (default 700 ms).
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

func (s *ChurnScenario) applyDefaults() {
	if s.Phones <= 0 {
		s.Phones = 10
	}
	if s.Speedup <= 0 {
		s.Speedup = 300
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

// ChurnOutcome is one churn run's result, JSON-tagged for the CI artifact.
type ChurnOutcome struct {
	Scheme        string  `json:"scheme"`
	Mode          string  `json:"mode"` // "reactive" or "scheduler"
	Ingested      int64   `json:"ingested"`
	Delivered     int64   `json:"delivered"`
	Lost          int64   `json:"tuples_lost"`
	Duplicates    int64   `json:"duplicates"`
	ThroughputTPS float64 `json:"throughput_tps"`
	DowntimeSec   float64 `json:"downtime_sec"`
	Migrations    int     `json:"migrations"`
	Recoveries    int     `json:"recoveries"`
	Departures    int     `json:"departures"`
	Joins         int     `json:"joins"`
	Dead          bool    `json:"region_dead"`
}

// churnGraph is the identity pipeline S -> M1 -> M2 -> K on four slots.
func churnGraph() (*graph.Graph, error) {
	var b graph.Builder
	b.AddOperator("S", "n1").AddOperator("M1", "n2").
		AddOperator("M2", "n3").AddOperator("K", "n4")
	b.Chain("S", "M1", "M2", "K")
	return b.Build()
}

func churnRegistry() operator.Registry {
	clone := func(t *tuple.Tuple) *tuple.Tuple { return t.Clone() }
	mapOp := func(id string, cost time.Duration) operator.Factory {
		return func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(cost)
			return m
		}
	}
	return operator.Registry{
		"S":  mapOp("S", 100*time.Millisecond),
		"M1": mapOp("M1", 200*time.Millisecond),
		"M2": mapOp("M2", 200*time.Millisecond),
		"K":  mapOp("K", 100*time.Millisecond),
	}
}

// gapTracker accumulates sink-output downtime: simulated time inside the
// measurement window during which the inter-output gap exceeded the
// allowance (outages from recoveries, handoffs, urgent-mode detours).
type gapTracker struct {
	mu        sync.Mutex
	allowance time.Duration
	start     time.Duration // 0 until the window opens
	last      time.Duration
	downtime  time.Duration
}

func (g *gapTracker) open(now time.Duration) {
	g.mu.Lock()
	g.start, g.last = now, now
	g.mu.Unlock()
}

func (g *gapTracker) tick(now time.Duration, end time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.start == 0 || now <= g.last {
		return
	}
	if now > end {
		now = end
	}
	if gap := now - g.last; gap > g.allowance {
		g.downtime += gap - g.allowance
	}
	if now > g.last {
		g.last = now
	}
}

func (g *gapTracker) closeAt(end time.Duration) time.Duration {
	g.tick(end, end)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.downtime
}

// RunChurn executes one churn scenario to completion.
func RunChurn(s ChurnScenario) (ChurnOutcome, error) {
	s.applyDefaults()
	g, err := churnGraph()
	if err != nil {
		return ChurnOutcome{}, err
	}
	clk := clock.NewScaled(s.Speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   0.16e6,
		DownBitsPerSecond: 0.7e6,
		Latency:           80 * time.Millisecond,
		SharedBps:         2e6,
	})
	ctrlCfg := controller.Config{
		Clock: clk,
		Cell:  cell,
		Logf: func(format string, args ...interface{}) {
			if churnDebug != nil {
				churnDebug("%8.1fs ctrl: "+format, append([]interface{}{clk.Now().Seconds()}, args...)...)
			}
		},
		CheckpointPeriod: s.CheckpointPeriod,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
	}
	if s.SchedulerOn {
		ctrlCfg.Planner = scheduler.NewPlanner(placement.New(placement.Config{}), nil)
		ctrlCfg.ScheduleTick = 5 * time.Second
	}
	ctrl := controller.New(ctrlCfg)

	gaps := &gapTracker{allowance: 5 * s.SourcePeriod}
	var measureEnd atomic.Int64 // simulated ns; 0 until known
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             g,
		Registry:          churnRegistry(),
		Scheme:            s.Scheme,
		Phones:            s.Phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: s.WiFiBps, LossProb: s.WiFiLoss, Seed: s.Seed},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		PhoneCfg:          phone.Config{BatteryJoules: s.BatteryJoules},
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: s.Scheme.Kind == ft.MS,
		RadiusM:           s.RadiusM,
		OnSinkOutput: func(_ simnet.NodeID, _ *tuple.Tuple) {
			gaps.tick(clk.Now(), time.Duration(measureEnd.Load()))
		},
	})
	if err != nil {
		return ChurnOutcome{}, err
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()

	// Warm up: let the first checkpoint commit before churn starts.
	clk.Sleep(s.Warmup)

	// Ingest: one tuple per SourcePeriod, counted from the window open.
	var ingested int64
	gen := workload.NewGenerator(clk)
	gen.StartBCPBus(func(_ string, v interface{}, _ int, _ string) {
		atomic.AddInt64(&ingested, 1)
		r.Ingest("S", v, 2048, "count")
	}, workload.BCPBusConfig{Period: s.SourcePeriod, Seed: s.Seed})

	start := clk.Now()
	end := start + s.Measure
	measureEnd.Store(int64(end))
	r.Throughput.Start(start)
	r.Latency.Reset()
	gaps.open(start)

	// Churn: Poisson leaves (battery cliffs and commuter walks over the
	// range boundary) plus Poisson joins of fresh phones.
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
			if churnDebug != nil {
				churnDebug("%8.1fs churn: cliff %s -> %.0f%%", clk.Now().Seconds(), id, fraction*100)
			}
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
			if churnDebug != nil {
				churnDebug("%8.1fs churn: walk %s vel (%.1f, %.1f)", clk.Now().Seconds(), id, vx, vy)
			}
			if ph := r.Phone(id); ph != nil {
				ph.SetVelocity(vx, vy)
			}
		},
		Departed: func(id simnet.NodeID) {
			if churnDebug != nil {
				churnDebug("%8.1fs churn: %s crossed the boundary", clk.Now().Seconds(), id)
			}
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
	if s.SchedulerOn {
		mode = "scheduler"
	}
	out := ChurnOutcome{
		Scheme:     s.Scheme.String(),
		Mode:       mode,
		Ingested:   atomic.LoadInt64(&ingested),
		Delivered:  r.Throughput.Count(),
		Duplicates: r.DuplicateOutputs(),
		Migrations: ctrl.Migrations("r1"),
		Recoveries: ctrl.Recoveries("r1"),
		Departures: ctrl.Departures("r1"),
		Joins:      int(atomic.LoadInt64(&joins)),
		Dead:       ctrl.RegionDead("r1"),
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

// ChurnSchemes is the default scheme sweep for the churn experiment.
var ChurnSchemes = []ft.Scheme{ft.Rep2Scheme, ft.Dist(2), ft.MSScheme}

// ChurnComparison runs reactive-only and scheduler-on under an identical
// churn schedule (same seed) for every scheme.
func ChurnComparison(base ChurnScenario, schemes []ft.Scheme) ([]ChurnOutcome, error) {
	if len(schemes) == 0 {
		schemes = ChurnSchemes
	}
	var rows []ChurnOutcome
	for _, sch := range schemes {
		for _, on := range []bool{false, true} {
			s := base
			s.Scheme = sch
			s.SchedulerOn = on
			o, err := RunChurn(s)
			if err != nil {
				return nil, fmt.Errorf("churn %s scheduler=%v: %w", sch, on, err)
			}
			rows = append(rows, o)
		}
	}
	return rows, nil
}

// ChurnReport is the machine-readable experiment artifact
// (BENCH_scheduler.json in CI).
type ChurnReport struct {
	Experiment string         `json:"experiment"`
	Seed       int64          `json:"seed"`
	MeasureSec float64        `json:"measure_sec"`
	Rows       []ChurnOutcome `json:"rows"`
}

// WriteChurnJSON emits the churn comparison as indented JSON.
func WriteChurnJSON(w io.Writer, base ChurnScenario, rows []ChurnOutcome) error {
	base.applyDefaults()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ChurnReport{
		Experiment: "churn: reactive recovery vs adaptive placement scheduler",
		Seed:       base.Seed,
		MeasureSec: base.Measure.Seconds(),
		Rows:       rows,
	})
}

// WriteChurnTable renders the comparison for humans.
func WriteChurnTable(w io.Writer, rows []ChurnOutcome) {
	fmt.Fprintln(w, "Churn — reactive recovery vs adaptive placement scheduler")
	fmt.Fprintf(w, "%-8s %-10s %10s %10s %6s %10s %11s %11s %6s\n",
		"scheme", "mode", "ingested", "delivered", "lost", "downtime", "migrations", "recoveries", "dead")
	for _, o := range rows {
		fmt.Fprintf(w, "%-8s %-10s %10d %10d %6d %9.1fs %11d %11d %6v\n",
			o.Scheme, o.Mode, o.Ingested, o.Delivered, o.Lost, o.DowntimeSec, o.Migrations, o.Recoveries, o.Dead)
	}
}

// churnDebug, when non-nil, receives churn event traces (probing only).
var churnDebug func(string, ...interface{})
