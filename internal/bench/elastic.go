package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
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
)

// The elastic keyed-parallelism experiment's fixed scenario: a keyed tally
// group under a skewed-key moving hotspot, run with the controller's
// adaptive loop, which splits and merges the group, on or off.
//
// The workload keeps the total ingest rate constant and shifts per-key
// weight: during a hotspot phase every key in one instance's range carries
// elasticHotFactor× the weight of a cold key, so the owning instance
// saturates (arrival > its 1/elasticTallyCost service rate) while the group
// as a whole is lightly loaded — precisely the case static keyed parallelism
// cannot fix and a live key-range split can.
const (
	elasticPhones = 10 // 9 slots + 1 idle
	// elasticSpeedup is the simulated-to-wall clock ratio. Two forces pin
	// it: elasticTallyCost/elasticSpeedup must stay comfortably above the
	// scaled clock's 150 µs wall spin window so executors spend their
	// service time in time.Sleep and genuinely run in parallel even on a
	// single-core host; and every wall-clock hiccup (GC, OS scheduling)
	// inflates measured sim latency by the speedup, so a high ratio lets a
	// ~50 ms stall masquerade as seconds of p99. 15 keeps a full run under
	// ~5 s wall while bounding stall amplification.
	elasticSpeedup = 15
	elasticKeys    = 64 // keys "k00".."k63"
	// elasticRate is the total ingest rate in tuples per simulated second,
	// constant across all phases: each of the two active instances runs at
	// ~0.66 utilisation uniform, and a hotspot pushes its owner to ~1.2,
	// saturating it decisively.
	elasticRate      = 22.0
	elasticHotFactor = 10.0
	// elasticTallyCost is the keyed operator's per-tuple processing cost (a
	// 4 ms wall sleep at elasticSpeedup — see there).
	elasticTallyCost = 60 * time.Millisecond
	// elasticPreMeasure is the uniform window whose p99 is the flat
	// baseline. Each hotspot phase runs elasticAdaptGrace (the window the
	// controller has to react) followed by an elasticHotMeasure window whose
	// p99 is reported.
	elasticWarmup     = 5 * time.Second
	elasticPreMeasure = 15 * time.Second
	elasticAdaptGrace = 10 * time.Second
	elasticHotMeasure = 15 * time.Second
)

// ElasticOutcome is one run's result.
type ElasticOutcome struct {
	Mode            string  `json:"mode"` // "static" or "elastic"
	Ingested        int64   `json:"ingested"`
	Delivered       int64   `json:"delivered"`
	Duplicates      int64   `json:"duplicates"`
	P99PreMs        float64 `json:"p99_pre_ms"`
	P99HotMs        float64 `json:"p99_hotspot_ms"`
	DegradeFactor   float64 `json:"degrade_factor"`
	Splits          int     `json:"splits"`
	Merges          int     `json:"merges"`
	ActiveInstances int     `json:"active_instances"`
}

const (
	elasticLogical = "tally"
	elasticPar     = 2
	elasticMaxPar  = 6
)

// elasticPipeline is SRC -> KB -> tally (keyed, 2 of 6 active) -> SINK.
func elasticPipeline() (*graph.Graph, operator.Registry, error) {
	var b graph.Builder
	b.AddOperator("SRC", "s1").AddOperator("KB", "s2").AddOperator("SINK", "s9")
	b.AddKeyedOperator(elasticLogical, "kt", elasticPar, elasticMaxPar)
	b.Connect("SRC", "KB")
	b.ConnectToGroup("KB", elasticLogical)
	b.ConnectFromGroup(elasticLogical, "SINK")
	reg := operator.Registry{
		"SRC": func() operator.Operator { return operator.NewPassthrough("SRC") },
		"KB": func() operator.Operator {
			return operator.NewKeyTag("KB", func(t *tuple.Tuple) string { return t.Kind })
		},
		"SINK": func() operator.Operator { return operator.NewPassthrough("SINK") },
	}
	for i := 0; i < elasticMaxPar; i++ {
		id := fmt.Sprintf("%s#%d", elasticLogical, i)
		reg[id] = func() operator.Operator {
			kt := operator.NewKeyedTally(id)
			kt.CostFn = operator.FixedCost(elasticTallyCost)
			return kt
		}
	}
	g, err := b.Build()
	return g, reg, err
}

// runElastic executes one elastic run: uniform baseline window, then two
// hotspot phases (the skew lands on instance 0's range, then moves to
// instance 1's), reporting the flat-phase and worst hotspot-phase p99.
func runElastic(seed int64, elasticOn bool) (ElasticOutcome, error) {
	g, reg, err := elasticPipeline()
	if err != nil {
		return ElasticOutcome{}, err
	}
	d := deploy.New(elasticSpeedup, simnet.CellularConfig{UpBitsPerSecond: 8e6, DownBitsPerSecond: 8e6},
		controller.Config{CheckpointPeriod: time.Hour, Adaptive: elasticOn})
	r, err := d.AddRegion(region.Config{
		ID:       "r1",
		Graph:    g,
		Registry: reg,
		Scheme:   ft.MSScheme,
		Phones:   elasticPhones,
		// Saturation physics demand exact per-instance service rates in
		// simulated time (utilisation ~0.66 uniform, ~1.2 under the
		// hotspot); virtual CPU anchoring keeps them exact even when the
		// host schedules the executors late.
		PhoneCfg: phone.Config{VirtualCPUTime: true},
		WiFi:     simnet.WiFiConfig{BitsPerSecond: 100e6, Seed: seed},
	})
	if err != nil {
		return ElasticOutcome{}, err
	}
	clk := d.Clock
	// Two active instances split the keyspace at the midpoint key, so each
	// hotspot phase lands entirely on one instance's range.
	mid := fmt.Sprintf("k%02d", elasticKeys/2)
	if err := r.SeedKeyRanges(elasticLogical, []string{mid}); err != nil {
		return ElasticOutcome{}, err
	}
	d.Start()
	defer d.Stop()

	// Workload: elasticRate tuples per simulated second, emitted in 50 ms
	// ticks with fractional carry so the sim-time rate holds regardless of
	// wall speed. Phase 0 is uniform; phase 1/2 give every key in the
	// lower/upper half elasticHotFactor× the weight of a cold key at the
	// same total rate.
	var phase atomic.Int32
	var ingested atomic.Int64
	const genTick = 50 * time.Millisecond
	const half = elasticKeys / 2
	hotShare := elasticHotFactor * half / (elasticHotFactor*half + (elasticKeys - half))
	stopGen := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		seq, acc := 0, 0.0
		last := clk.Now()
		for {
			select {
			case <-stopGen:
				return
			default:
			}
			clk.Sleep(genTick)
			now := clk.Now()
			acc += elasticRate * (now - last).Seconds()
			last = now
			ph := phase.Load()
			for ; acc >= 1; acc-- {
				var key int
				switch {
				case ph == 0:
					key = rng.Intn(elasticKeys)
				case rng.Float64() < hotShare:
					key = rng.Intn(half)
					if ph == 2 {
						key += half
					}
				default:
					key = rng.Intn(elasticKeys - half)
					if ph == 1 {
						key += half
					}
				}
				seq++
				ingested.Add(1)
				r.Ingest("SRC", seq, 512, fmt.Sprintf("k%02d", key))
			}
		}
	}()

	// Each window's p99 is the minimum across three sub-windows: a wall
	// hiccup (GC, OS scheduling) stretches sim latency by Speedup× and
	// would poison a single window's tail, but it lands in one sub-window
	// and the min discards it. The statistic still exposes saturation —
	// a genuinely overloaded instance's queue keeps every sub-window's
	// tail high, so only transient noise is filtered.
	measureP99 := func(window time.Duration) time.Duration {
		const subs = 3
		var best time.Duration
		for i := 0; i < subs; i++ {
			r.OpenWindow()
			clk.Sleep(window / subs)
			p := time.Duration(r.SinkLatency().Percentile(99))
			if i == 0 || p < best {
				best = p
			}
		}
		return best
	}

	clk.Sleep(elasticWarmup)
	p99Pre := measureP99(elasticPreMeasure)

	var p99Hot time.Duration
	for ph := int32(1); ph <= 2; ph++ {
		phase.Store(ph)
		clk.Sleep(elasticAdaptGrace)
		if p := measureP99(elasticHotMeasure); p > p99Hot {
			p99Hot = p
		}
	}

	close(stopGen)
	wg.Wait()
	clk.Sleep(2 * time.Second) // drain the pipeline tail

	mode := "static"
	if elasticOn {
		mode = "elastic"
	}
	out := ElasticOutcome{
		Mode:       mode,
		Ingested:   ingested.Load(),
		Delivered:  int64(r.Outputs()),
		Duplicates: r.DuplicateOutputs(),
		P99PreMs:   float64(p99Pre) / float64(time.Millisecond),
		P99HotMs:   float64(p99Hot) / float64(time.Millisecond),
	}
	for _, e := range r.Obs().Journal.Events() {
		switch e.Kind {
		case "keyed.split":
			out.Splits++
		case "keyed.merge":
			out.Merges++
		}
	}
	if p99Pre > 0 {
		out.DegradeFactor = float64(p99Hot) / float64(p99Pre)
	}
	if grp, ok := r.KeyedGroup(elasticLogical); ok {
		out.ActiveInstances = len(grp.Table().Instances())
	}
	return out, nil
}

// elasticComparison runs the identical workload (same seed and phase
// schedule) with the adaptive loop off and on.
func elasticComparison(seed int64) ([]ElasticOutcome, error) {
	var rows []ElasticOutcome
	for _, on := range []bool{false, true} {
		o, err := runElastic(seed, on)
		if err != nil {
			return nil, fmt.Errorf("elastic on=%v: %w", on, err)
		}
		rows = append(rows, o)
	}
	return rows, nil
}

// writeElasticTable renders the comparison for humans.
func writeElasticTable(w io.Writer, rows []ElasticOutcome) {
	fmt.Fprintln(w, "Elastic — static vs elastic keyed parallelism, 10x moving hotspot")
	fmt.Fprintf(w, "%-8s %9s %10s %5s %12s %12s %8s %7s %7s %7s\n",
		"mode", "ingested", "delivered", "dups", "p99 pre ms", "p99 hot ms", "degrade", "splits", "merges", "active")
	for _, o := range rows {
		fmt.Fprintf(w, "%-8s %9d %10d %5d %12.1f %12.1f %7.1fx %7d %7d %7d\n",
			o.Mode, o.Ingested, o.Delivered, o.Duplicates, o.P99PreMs, o.P99HotMs, o.DegradeFactor, o.Splits, o.Merges, o.ActiveInstances)
	}
}

// elasticRow is the elastic-on run's row.
func elasticRow(rows []ElasticOutcome) (ElasticOutcome, bool) {
	return find(rows, func(o ElasticOutcome) bool { return o.Mode == "elastic" })
}

var elasticExperiment = experiment("elastic",
	"static vs elastic keyed parallelism under a moving hotspot",
	func(p Params) ([]ElasticOutcome, error) { return elasticComparison(p.Seed) },
	writeElasticTable,
	"elastic results carry no elastic-mode hotspot sample",
	// The elastic-on run's worst hotspot-phase p99: the number the
	// split/merge policy exists to hold down. The static run's degradation
	// is the experiment's headline but is deliberately unbounded here — it
	// measures the problem, not the solution. The grace absorbs scaled-clock
	// jitter: the tail is a handful of tuples queued behind a split's pause
	// window, so shared-machine scheduling moves it tens of ms between runs
	// even when the policy behaves identically.
	gateRow{Key: "elastic_p99_hotspot_ms", Grace: 100,
		What: "elastic hotspot p99", Format: "%.1f ms", Fail: "elastic hotspot p99 regressed: %s > %s",
		Pick: pick(func(rows []ElasticOutcome) (float64, float64, bool) {
			o, _ := elasticRow(rows)
			return o.P99HotMs, 0, o.P99HotMs > 0
		})},
	// Exactly-once across a live split/merge: a duplicate output is a
	// protocol bug, pinned at zero with no grace.
	gateRow{What: "elastic duplicate outputs", Format: "%.0f",
		Fail: "elastic run published %s duplicate outputs (must stay below %s)",
		Pick: pick(func(rows []ElasticOutcome) (float64, float64, bool) {
			o, found := elasticRow(rows)
			return float64(o.Duplicates), 1, found
		})},
)
