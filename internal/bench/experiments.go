package bench

import (
	"fmt"
	"io"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/server"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"

	"mobistreams/internal/broadcast"
)

// SteadySchemes is Fig. 8/Fig. 10's x-axis.
var SteadySchemes = []ft.Scheme{
	ft.BaseScheme, ft.Rep2Scheme, ft.LocalScheme,
	ft.Dist(1), ft.Dist(2), ft.Dist(3), ft.MSScheme,
}

// steadyState runs the no-fault scenario for every scheme on one app.
func steadyState(app App, base Scenario) (map[string]Outcome, error) {
	out := make(map[string]Outcome, len(SteadySchemes))
	for _, sch := range SteadySchemes {
		s := base
		s.App = app
		s.Scheme = sch
		o, err := Run(s)
		if err != nil {
			return nil, fmt.Errorf("steady %s/%s: %w", app, sch, err)
		}
		out[sch.String()] = o
	}
	return out, nil
}

// writeFig8 renders the relative throughput/latency table of Fig. 8 from
// steady-state outcomes (values normalised to base).
func writeFig8(w io.Writer, app App, outs map[string]Outcome) {
	base := outs["base"]
	fmt.Fprintf(w, "Fig. 8 — %s: fault-tolerance schemes at steady state (no faults)\n", app)
	fmt.Fprintf(w, "%-8s %14s %12s %14s %12s\n", "scheme", "tput (t/s)", "rel tput", "mean lat (s)", "rel lat")
	for _, sch := range SteadySchemes {
		o := outs[sch.String()]
		relT, relL := 0.0, 0.0
		if base.ThroughputTPS > 0 {
			relT = o.ThroughputTPS / base.ThroughputTPS
		}
		if base.MeanLatency > 0 {
			relL = o.MeanLatency.Seconds() / base.MeanLatency.Seconds()
		}
		fmt.Fprintf(w, "%-8s %14.3f %11.0f%% %14.1f %12.2f\n",
			sch.String(), o.ThroughputTPS, relT*100, o.MeanLatency.Seconds(), relL)
	}
}

// figure is a table entry that only prints: run is called once per selected
// app with the scenario the flags describe.
func figure(name, about string, run func(app App, base Scenario, p Params, w io.Writer) error) Experiment {
	return Experiment{Name: name, About: about, Run: func(p Params, w io.Writer) (any, error) {
		for _, app := range p.Apps {
			if err := run(app, Scenario{Seed: p.Seed, Speedup: p.Speedup}, p, w); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}}
}

var fig8Experiment = figure("fig8", "steady-state throughput and latency per scheme (paper Fig. 8)",
	func(app App, base Scenario, _ Params, w io.Writer) error {
		outs, err := steadyState(app, base)
		if err == nil {
			writeFig8(w, app, outs)
		}
		return err
	})

// Fig10Row is one scheme's Fig. 10 data on one app: what it preserved at
// sources and edges, and what it moved over WiFi to checkpoint or replicate,
// inside the measurement window.
type Fig10Row struct {
	App              string `json:"app"`
	Scheme           string `json:"scheme"`
	PreservedBytes   int64  `json:"preserved_bytes"`
	CkptReplNetBytes int64  `json:"ckpt_repl_net_bytes"`
}

// fig10Rows runs the steady-state sweep on every selected app.
func fig10Rows(p Params) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, app := range p.Apps {
		outs, err := steadyState(app, Scenario{Seed: p.Seed, Speedup: p.Speedup})
		if err != nil {
			return nil, err
		}
		for _, sch := range SteadySchemes {
			o := outs[sch.String()]
			rows = append(rows, Fig10Row{app.String(), sch.String(), o.PreservedBytes, o.CheckpointNet + o.ReplicationNet})
		}
	}
	return rows, nil
}

// fig10Row finds one app's row for a scheme.
func fig10Row(rows []Fig10Row, app, scheme string) (Fig10Row, bool) {
	return find(rows, func(r Fig10Row) bool { return r.App == app && r.Scheme == scheme })
}

// writeFig10 renders the preservation/checkpoint data table of Fig. 10, one
// table per app (values normalised to ms).
func writeFig10(w io.Writer, rows []Fig10Row) {
	for i, r := range rows {
		if i > 0 && rows[i-1].App == r.App {
			continue
		}
		ms, _ := fig10Row(rows, r.App, "ms")
		fmt.Fprintf(w, "Fig. 10 — %s: preservation and checkpoint/replication data\n", r.App)
		fmt.Fprintf(w, "%-8s %16s %10s %18s %10s\n", "scheme", "preserved (MB)", "rel", "ckpt/repl net (MB)", "rel")
		for _, o := range rows {
			if o.App != r.App {
				continue
			}
			relP, relN := 0.0, 0.0
			if ms.PreservedBytes > 0 {
				relP = float64(o.PreservedBytes) / float64(ms.PreservedBytes)
			}
			if ms.CkptReplNetBytes > 0 {
				relN = float64(o.CkptReplNetBytes) / float64(ms.CkptReplNetBytes)
			}
			fmt.Fprintf(w, "%-8s %16.2f %10.2f %18.2f %10.2f\n",
				o.Scheme, mb(o.PreservedBytes), relP, mb(o.CkptReplNetBytes), relN)
		}
	}
}

// fig10Order is the gate rows for one of the paper's Fig. 10 orderings on
// BCP: each scheme's bytes stay strictly below the next one's.
func fig10Order(what string, bytes func(Fig10Row) int64, schemes ...string) []gateRow {
	var gates []gateRow
	for i := 1; i < len(schemes); i++ {
		lo, hi := schemes[i-1], schemes[i]
		gates = append(gates, gateRow{
			What:   fmt.Sprintf("fig10 BCP %s, %s vs %s", what, lo, hi),
			Format: "%.2f MB",
			Fail:   fmt.Sprintf("fig10 ordering broken on BCP %s: %s %%s >= %s %%s", what, lo, hi),
			Pick: pick(func(rows []Fig10Row) (float64, float64, bool) {
				a, okA := fig10Row(rows, BCP.String(), lo)
				b, okB := fig10Row(rows, BCP.String(), hi)
				return mb(bytes(a)), mb(bytes(b)), okA && okB
			}),
		})
	}
	return gates
}

// fig10Experiment gates the paper's qualitative result (§V, Fig. 10): token
// checkpoints with broadcast dissemination move less data than n-way
// unicast replication at every n, and source-only preservation keeps less
// than preserving at every edge, locally or replicated. The margins on BCP
// are ≥ 1.2x and stable across seeds, so the orderings need no grace.
var fig10Experiment = experiment("fig10",
	"preservation and checkpoint/replication data per scheme (paper Fig. 10)",
	fig10Rows, writeFig10,
	"fig10 results carry no BCP row for a scheme its orderings name",
	append(
		fig10Order("checkpoint/replication bytes", func(r Fig10Row) int64 { return r.CkptReplNetBytes }, "ms", "dist-1", "dist-2", "dist-3"),
		fig10Order("preserved bytes", func(r Fig10Row) int64 { return r.PreservedBytes }, "ms", "dist-3", "local")...)...,
)

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// fig9 runs and prints the fault sweep for one app: k = 0..maxK simultaneous
// failures per scheme, plus the MobiStreams departure curve. Points beyond a
// scheme's tolerance stop the curve (rep-2 has two points, dist-n has n+1),
// exactly as in the paper.
func fig9(app App, base Scenario, maxK int, w io.Writer) error {
	curve := func(sch ft.Scheme, departure bool, label string) error {
		var baseline Outcome
		for k := 0; k <= maxK; k++ {
			s := base
			s.App = app
			s.Scheme = sch
			if departure {
				s.DepartCount = k
			} else {
				s.FailCount = k
			}
			o, err := Run(s)
			if err != nil {
				return err
			}
			if k == 0 {
				baseline = o
			}
			relTput, relLat, dead := 0.0, 0.0, ""
			if baseline.ThroughputTPS > 0 {
				relTput = o.ThroughputTPS / baseline.ThroughputTPS
			}
			if baseline.MeanLatency > 0 {
				relLat = o.MeanLatency.Seconds() / baseline.MeanLatency.Seconds()
			}
			if o.Dead {
				dead = " [region dead]"
			}
			fmt.Fprintf(w, "%-22s k=%d: rel tput %5.0f%%  rel lat %5.2f%s\n", label, k, relTput*100, relLat, dead)
			if o.Dead && k > 0 {
				break // the curve truncates where recovery fails
			}
		}
		return nil
	}
	fmt.Fprintf(w, "Fig. 9 — %s: n-node failures/departures within one checkpoint period\n", app)
	for _, sch := range []ft.Scheme{ft.Rep2Scheme, ft.Dist(1), ft.Dist(2), ft.Dist(3), ft.MSScheme} {
		if err := curve(sch, false, sch.String()+" failure"); err != nil {
			return err
		}
	}
	return curve(ft.MSScheme, true, "ms departure")
}

var fig9Experiment = figure("fig9", "failure/departure sweep up to -maxk simultaneous faults (paper Fig. 9)",
	func(app App, base Scenario, p Params, w io.Writer) error { return fig9(app, base, p.MaxK, w) })

// table1 reproduces the MobiStreams-vs-server comparison on both apps. The
// server rows sweep the paper's 3G uplink range (0.016-0.32 Mbps); the
// MobiStreams rows run the phone platform with fault tolerance off (base),
// with a departure per period, and with a failure per period.
func table1(base Scenario, w io.Writer) error {
	fmt.Fprintln(w, "Table I — MobiStreams vs server-based DSPS (per-region)")
	for _, app := range []App{BCP, SG} {
		lo := runServer(app, 0.016e6, base)
		hi := runServer(app, 0.32e6, base)
		fmt.Fprintf(w, "%-11s server-based: %0.3f~%0.3f t/s, latency %0.0f~%0.0f s\n",
			app, lo.ThroughputTPS, hi.ThroughputTPS, hi.MeanLatency.Seconds(), lo.MeanLatency.Seconds())
		for _, mode := range []struct {
			name    string
			scheme  ft.Scheme
			fail    int
			departs int
		}{
			{"MobiStreams (FT off)", ft.BaseScheme, 0, 0},
			{"MobiStreams (departure/period)", ft.MSScheme, 0, 1},
			{"MobiStreams (failure/period)", ft.MSScheme, 1, 0},
		} {
			s := base
			s.App = app
			s.Scheme = mode.scheme
			s.FailCount = mode.fail
			s.DepartCount = mode.departs
			o, err := Run(s)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-11s %-32s %0.3f t/s, latency %0.0f s\n",
				app, mode.name+":", o.ThroughputTPS, o.MeanLatency.Seconds())
		}
	}
	return nil
}

var table1Experiment = Experiment{
	Name:  "table1",
	About: "MobiStreams vs server-based DSPS (paper Table I)",
	Run: func(p Params, w io.Writer) (any, error) {
		return nil, table1(Scenario{Seed: p.Seed, Speedup: p.Speedup}, w)
	},
}

// runServer measures the thin-client deployment of one app at an uplink
// rate: every camera tuple rides the uplink to the data center.
// serverSummary is runServer's compact result.
type serverSummary struct {
	ThroughputTPS float64
	MeanLatency   time.Duration
}

func runServer(app App, uplinkBps float64, base Scenario) serverSummary {
	clk := clock.NewScaled(base.Speedup * 4)
	var tupleBytes int
	var pipeline time.Duration
	var period time.Duration
	if app == BCP {
		tupleBytes = 180 << 10
		pipeline = 8500 * time.Millisecond // H + C + models on phone CPU
		period = 1750 * time.Millisecond
	} else {
		tupleBytes = 110 << 10
		pipeline = 3600 * time.Millisecond // colour+shape+motion + models
		period = 1200 * time.Millisecond
	}
	d := server.New(server.Config{
		Clock:         clk,
		UplinkBps:     uplinkBps,
		DownlinkBps:   0.7e6,
		CellLatency:   80 * time.Millisecond,
		ServerSpeedup: 20,
		PipelineCost:  pipeline,
		QueueCap:      8,
	})
	d.Start()
	stop := make(chan struct{})
	go func() {
		t := clk.NewTimer(period)
		defer t.Stop()
		for ; ; t.Reset(period) {
			select {
			case <-t.C():
				d.Offer(tupleBytes)
			case <-stop:
				return
			}
		}
	}()
	// Warm up one window, then measure.
	window := base.Measure
	if window <= 0 {
		window = 120 * time.Second
	}
	clk.Sleep(window / 2)
	d.OpenWindow()
	clk.Sleep(window * 4) // the slow uplink needs a long window for stable rates
	rep := d.Report(clk.Now())
	close(stop)
	d.Stop()
	return serverSummary{ThroughputTPS: rep.ThroughputTPS, MeanLatency: rep.MeanLatency}
}

// Fig6 renders the multi-phase broadcast walk-through with the paper's
// exact loss pattern (8 MB checkpoint, receivers A/B/C).
func Fig6(w io.Writer) broadcast.Stats {
	blob := &checkpoint.Blob{Slot: "sender", Version: 1, Size: 8192 * 1024, Ops: map[string][]byte{}}
	med := &scriptedMedium{receivers: map[simnet.NodeID]*broadcast.Receiver{
		"A": broadcast.NewReceiver(storage.New()),
		"B": broadcast.NewReceiver(storage.New()),
		"C": broadcast.NewReceiver(storage.New()),
	}}
	st := broadcast.Disseminate(med, clock.NewManual(), "sender", []simnet.NodeID{"A", "B", "C"}, blob, broadcast.Config{BlockSize: 1024})
	if w != nil {
		fmt.Fprintln(w, "Fig. 6 — multi-phase UDP broadcast walk-through (8 MB, 8192 x 1 KB blocks)")
		fmt.Fprintf(w, "UDP phases: %d (phase 1 all, phase 2 all, phase 3 evens; cost 4099 KB > gain 4095 KB stops UDP)\n", st.UDPPhases)
		fmt.Fprintf(w, "UDP bytes: %d KB, bitmap bytes: %d KB, TCP fill: %d KB\n",
			st.UDPBytes/1024, st.BitmapBytes/1024, st.TCPBytes/1024)
		fmt.Fprintf(w, "complete replicas: %d\n", len(st.Complete))
	}
	return st
}

var fig6Experiment = Experiment{
	Name:  "fig6",
	About: "multi-phase broadcast walk-through (paper Fig. 6)",
	Run: func(_ Params, w io.Writer) (any, error) {
		Fig6(w)
		return nil, nil
	},
}

// scriptedMedium reproduces Fig. 6's loss pattern: phase 1 delivers the
// first 3 messages to A, even messages to B, odd messages to C; phase 2
// completes A and B; phase 3 delivers all but M2 to C.
type scriptedMedium struct {
	receivers map[simnet.NodeID]*broadcast.Receiver
	phase     int
}

func (s *scriptedMedium) BroadcastBatch(from simnet.NodeID, class simnet.Class, grams []simnet.Datagram) int {
	s.phase++
	delivered := 0
	for _, g := range grams {
		bm := g.Payload.(*broadcast.BlockMsg)
		for id, r := range s.receivers {
			if s.deliver(id, bm.Index) {
				r.OnBlock(*bm)
				delivered++
			}
		}
	}
	return delivered
}

func (s *scriptedMedium) deliver(to simnet.NodeID, b int) bool {
	switch s.phase {
	case 1:
		switch to {
		case "A":
			return b < 3
		case "B":
			return b%2 == 1
		default:
			return b%2 == 0
		}
	case 2:
		return to != "C"
	default:
		return to != "C" || b != 1
	}
}

func (s *scriptedMedium) Request(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}, reply chan simnet.Message) error {
	q := payload.(broadcast.QueryMsg)
	bm := s.receivers[to].Bitmap(q)
	reply <- simnet.Message{From: to, To: from, Class: class, Size: broadcast.BitmapWireBytes(q.Total), Payload: bm}
	return nil
}

func (s *scriptedMedium) Unicast(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) error {
	if r, ok := s.receivers[to]; ok {
		r.OnFill(payload.(broadcast.FillMsg))
	}
	return nil
}
