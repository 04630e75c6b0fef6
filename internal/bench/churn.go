package bench

import (
	"fmt"
	"io"
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/workload"
)

// churnRun configures one run of the churn runner: identity pipelines (every
// ingested tuple yields exactly one sink output, so tuple loss is measured
// exactly) under Poisson phone join/leave churn, run with the paper's
// reactive recovery alone or with the placement planner's proactive
// migrations layered on top. The fields are what the churn and placement
// experiments and their tests vary; the constants below are the rest.
type churnRun struct {
	Scheme ft.Scheme
	// Planner runs the placement planner; false is the reactive arm (no
	// proactive migration at all).
	Planner bool
	// Phones is the region population, Channels the WiFi channel/AP domain
	// count (0 is one shared cell).
	Phones   int
	Channels int
	// Pipelines 0 is the churn experiment's single four-slot chain; n ≥ 1 is
	// the placement experiment's n independent three-slot chains.
	Pipelines int
	Speedup   float64
	// CheckpointPeriod bounds reactive recovery's replay window — the
	// tuples a recovery loses to sink-side suppression. The warmup is one
	// period, so a committed checkpoint exists when churn starts.
	CheckpointPeriod time.Duration
	// Measure is the churn + measurement window; Drain lets the pipeline
	// tail flush after ingest stops; MeanLeave is the Poisson leave mean.
	Measure   time.Duration
	Drain     time.Duration
	MeanLeave time.Duration
	Seed      int64
}

const (
	churnSourcePeriod = 700 * time.Millisecond // rotated across pipelines
	churnMeanJoin     = 45 * time.Second
	// churnCliffShare splits leaves between battery cliffs and commuter
	// walks; churnWalkSpeed (m/s) and churnRadiusM shape the commuter trace,
	// churnBatteryJoules and churnCliffFraction the battery cliff.
	churnCliffShare    = 0.6
	churnWalkSpeed     = 4
	churnRadiusM       = 120
	churnBatteryJoules = 150
	churnCliffFraction = 0.08
)

// churnScenario is the churn experiment: ten phones (4 active + 6 idle) on
// one cell.
var churnScenario = churnRun{
	Phones:           10,
	Speedup:          200,
	CheckpointPeriod: 30 * time.Second,
	Measure:          120 * time.Second,
	Drain:            15 * time.Second,
	MeanLeave:        20 * time.Second,
}

// placementScenario is the placement experiment: four pipelines spread over
// a four-channel region. Round-robin channel assignment scatters every
// pipeline across channels at start, so every hop initially burns two cells
// of airtime — the structural waste the planner's pack-to-empty pass exists
// to remove, and reactive recovery never sees.
var placementScenario = churnRun{
	Scheme:    ft.MSScheme,
	Phones:    128,
	Channels:  4,
	Pipelines: 4,
	// Plan execution is paced against simulated time — a migration's
	// transfer deadline is 60 simulated seconds — so the speedup bounds how
	// much wall-clock scheduling stall a plan step can absorb before it
	// spuriously times out and aborts the plan. 150 keeps the whole
	// comparison under ~15 s of wall time while giving each step hundreds
	// of milliseconds of slack on a contended CI runner.
	Speedup:          150,
	CheckpointPeriod: 30 * time.Second,
	Measure:          120 * time.Second,
	Drain:            15 * time.Second,
	MeanLeave:        20 * time.Second,
}

// ChurnOutcome is one churn-runner result; the plan and channel columns are
// the placement experiment's.
type ChurnOutcome struct {
	Scheme            string    `json:"scheme"`
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

// churnPipelines builds the runner's graph and names its source operators.
// With n == 0 it is the identity pipeline S -> M1 -> M2 -> K on four slots.
// Otherwise it is n independent chains S<i> -> M<i> -> K<i>, one operator per
// slot c<i>a..c<i>c: slot names sort chain-major, so the region's in-order
// initial placement puts each chain on consecutive phones — and round-robin
// channel assignment therefore fans every chain out across channels.
func churnPipelines(n int) (*graph.Graph, operator.Registry, []string, error) {
	clone := func(ctx *operator.Context, t *tuple.Tuple) *tuple.Tuple { return ctx.Clone(t) }
	var b graph.Builder
	reg := operator.Registry{}
	add := func(id, slot string, cost time.Duration) {
		b.AddOperator(id, slot)
		reg[id] = func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(cost)
			return m
		}
	}
	var sources []string
	if n == 0 {
		add("S", "n1", 100*time.Millisecond)
		add("M1", "n2", 200*time.Millisecond)
		add("M2", "n3", 200*time.Millisecond)
		add("K", "n4", 100*time.Millisecond)
		b.Chain("S", "M1", "M2", "K")
		sources = []string{"S"}
	}
	for i := 1; i <= n; i++ {
		src, mid, sink := fmt.Sprintf("S%d", i), fmt.Sprintf("M%d", i), fmt.Sprintf("K%d", i)
		add(src, fmt.Sprintf("c%da", i), 100*time.Millisecond)
		add(mid, fmt.Sprintf("c%db", i), 200*time.Millisecond)
		add(sink, fmt.Sprintf("c%dc", i), 100*time.Millisecond)
		b.Chain(src, mid, sink)
		sources = append(sources, src)
	}
	g, err := b.Build()
	return g, reg, sources, err
}

// runChurn executes one churn run to completion.
func runChurn(s churnRun) (ChurnOutcome, error) {
	g, reg, sources, err := churnPipelines(s.Pipelines)
	if err != nil {
		return ChurnOutcome{}, err
	}
	gaps := &gapTracker{allowance: 5 * churnSourcePeriod}
	d := deploy.New(s.Speedup, paperCell, controller.Config{CheckpointPeriod: s.CheckpointPeriod, Adaptive: s.Planner})
	clk, ctrl := d.Clock, d.Ctrl
	r, err := d.AddRegion(region.Config{
		ID:           "r1",
		Graph:        g,
		Registry:     reg,
		Scheme:       s.Scheme,
		Phones:       s.Phones,
		WiFi:         simnet.WiFiConfig{BitsPerSecond: paperWiFiBps, LossProb: paperWiFiLoss, Channels: s.Channels, Seed: s.Seed},
		PhoneCfg:     phone.Config{BatteryJoules: churnBatteryJoules},
		RadiusM:      churnRadiusM,
		OnSinkOutput: func(simnet.NodeID, *tuple.Tuple) { gaps.tick(clk.Now()) },
	})
	if err != nil {
		return ChurnOutcome{}, err
	}
	d.Start()

	// Warm up: let the first checkpoint commit before churn starts.
	clk.Sleep(s.CheckpointPeriod)

	// Ingest: one tuple per source period, counted from the window open and
	// rotated across the pipelines so every chain carries identical load.
	gen, ingested := ingestBus(d, r, churnSourcePeriod, s.Seed, func(n int64) string {
		return sources[int((n-1)%int64(len(sources)))]
	})
	start := r.OpenWindow()
	gaps.open(start, start+s.Measure)
	churn, joins := startChurn(d, r, workload.ChurnConfig{
		MeanLeave:     s.MeanLeave,
		MeanJoin:      churnMeanJoin,
		CliffShare:    churnCliffShare,
		CliffFraction: churnCliffFraction,
		WalkSpeed:     churnWalkSpeed,
		RadiusM:       churnRadiusM,
		Seed:          s.Seed,
	}, churnBatteryJoules)

	clk.Sleep(s.Measure)
	churn.Stop()
	gen.Stop()
	clk.Sleep(s.Drain)

	rep := r.Report(clk.Now())
	out := ChurnOutcome{
		Scheme:            s.Scheme.String(),
		Mode:              "reactive",
		Ingested:          ingested.Load(),
		Delivered:         rep.Tuples,
		Duplicates:        r.DuplicateOutputs(),
		DowntimeSec:       gaps.close().Seconds(),
		Migrations:        ctrl.Migrations("r1"),
		Recoveries:        ctrl.Recoveries("r1"),
		CrossChannelShare: rep.CrossChannelShare,
		Departures:        ctrl.Departures("r1"),
		Joins:             int(joins.Load()),
		Dead:              ctrl.RegionDead("r1"),
	}
	if s.Planner {
		out.Mode = "planner"
	}
	out.PlanCommits, out.PlanAborts = ctrl.PlanStats("r1")
	for _, a := range rep.ChannelAirtime {
		out.ChannelAirtimeSec = append(out.ChannelAirtimeSec, a.Seconds())
	}
	out.Lost = max(0, out.Ingested-out.Delivered)
	out.ThroughputTPS = float64(out.Delivered) / s.Measure.Seconds()
	d.Stop()
	return out, nil
}

// churnComparison runs the reactive arm and the planner under an identical
// churn schedule (same seed) for every scheme.
func churnComparison(base churnRun, schemes ...ft.Scheme) ([]ChurnOutcome, error) {
	var rows []ChurnOutcome
	for _, sch := range schemes {
		for _, planner := range []bool{false, true} {
			s := base
			s.Scheme, s.Planner = sch, planner
			o, err := runChurn(s)
			if err != nil {
				return nil, fmt.Errorf("churn %s planner=%v: %w", sch, planner, err)
			}
			rows = append(rows, o)
		}
	}
	return rows, nil
}

// writeChurnTable renders either experiment's comparison for humans.
func writeChurnTable(w io.Writer, title string, rows []ChurnOutcome) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-8s %-9s %9s %10s %5s %9s %11s %11s %7s %6s %7s %6s\n",
		"scheme", "mode", "ingested", "delivered", "lost", "downtime", "migrations", "recoveries", "commit", "abort", "cross", "dead")
	for _, o := range rows {
		fmt.Fprintf(w, "%-8s %-9s %9d %10d %5d %8.1fs %11d %11d %7d %6d %6.1f%% %6v\n",
			o.Scheme, o.Mode, o.Ingested, o.Delivered, o.Lost, o.DowntimeSec,
			o.Migrations, o.Recoveries, o.PlanCommits, o.PlanAborts, o.CrossChannelShare*100, o.Dead)
	}
}

var churnExperiment = experiment("churn",
	"reactive recovery vs placement planner under phone churn, one channel",
	func(p Params) ([]ChurnOutcome, error) {
		s := churnScenario
		s.Seed = p.Seed
		return churnComparison(s, ft.Rep2Scheme, ft.Dist(2), ft.MSScheme)
	},
	func(w io.Writer, rows []ChurnOutcome) {
		writeChurnTable(w, "Churn — reactive recovery vs placement planner, one channel", rows)
	},
	"churn results carry no planner-mode rows",
	// The worst tuples_lost across the planner-on rows.
	gateRow{Key: "max_scheduler_tuple_loss", Grace: 3,
		What: "planner-on tuple loss", Format: "%.0f", Fail: "tuple loss regressed: %s > %s",
		Pick: pick(func(rows []ChurnOutcome) (worst, _ float64, found bool) {
			for _, o := range rows {
				if o.Mode == "planner" {
					worst, found = max(worst, float64(o.Lost)), true
				}
			}
			return
		})},
)

var placementExperiment = experiment("placement",
	"reactive recovery vs placement planner, four channels",
	func(p Params) ([]ChurnOutcome, error) {
		s := placementScenario
		s.Seed = p.Seed
		return churnComparison(s, s.Scheme)
	},
	func(w io.Writer, rows []ChurnOutcome) {
		writeChurnTable(w, "Placement — reactive recovery vs placement planner, four channels", rows)
	},
	"placement results carry no reactive+planner row pair",
	// The planner arm's tuple loss divided by the reactive arm's (floored at
	// one tuple): the planner-beats-reactive headline as a ratio, so the
	// gate tracks the relative claim rather than an absolute count that
	// moves with the churn schedule. The grace absorbs churn-schedule
	// sensitivity: both arms run the same seed, but a migration landing one
	// tick earlier can shift a single lost tuple between arms, which moves
	// the ratio a lot when the absolute counts are small. At the committed
	// baseline (both arms lose zero; ratio 0.0) the grace is what tolerates
	// one stray planner-arm tuple against a clean reactive run, so it must
	// stay above 1.0.
	gateRow{Key: "placement_loss_vs_reactive", Grace: 1.5,
		What: "placement loss vs reactive", Format: "%.2f", Fail: "placement loss vs reactive regressed: %s > %s",
		Pick: pick(func(rows []ChurnOutcome) (ratio, _ float64, found bool) {
			reactive, planner, found := placementArms(rows)
			return float64(planner.Lost) / float64(max(reactive.Lost, 1)), 0, found
		})},
	// Structural (repacking removes cross-cell hops), so no regression
	// factor at all: the planner arm must keep its cross-channel airtime
	// share below the reactive arm's.
	gateRow{What: "placement planner cross-channel share", Format: "%.3f",
		Fail: "placement planner no longer beats reactive on cross-channel share: %s >= %s",
		Pick: pick(func(rows []ChurnOutcome) (float64, float64, bool) {
			reactive, planner, found := placementArms(rows)
			return planner.CrossChannelShare, reactive.CrossChannelShare, found
		})},
	// Plan execution rides the exactly-once migration path: pinned at zero.
	gateRow{What: "placement planner duplicate outputs", Format: "%.0f",
		Fail: "placement planner run published %s duplicate outputs (must stay below %s)",
		Pick: pick(func(rows []ChurnOutcome) (float64, float64, bool) {
			_, planner, found := placementArms(rows)
			return float64(planner.Duplicates), 1, found
		})},
)

// placementArms finds the comparison's two rows.
func placementArms(rows []ChurnOutcome) (reactive, planner ChurnOutcome, found bool) {
	reactive, okR := find(rows, func(o ChurnOutcome) bool { return o.Mode == "reactive" })
	planner, okP := find(rows, func(o ChurnOutcome) bool { return o.Mode == "planner" })
	return reactive, planner, okR && okP
}
