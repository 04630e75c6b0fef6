package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	bcpapp "mobistreams/internal/apps/bcp"
	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/metrics"
	"mobistreams/internal/obs"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/workload"
)

// paper-bcp-fault: the paper's Bus Capacity Prediction app on the paper's
// medium, with a burst failure in every window. Every time this workload
// reports is SIMULATED time (the scaled clock's), not wall time: it is
// bound by modelled airtime and by the recovery protocol, not by the host.

const (
	bcpSpeedup = 200
	bcpPeriod  = 60 * time.Second // checkpoint period, simulated
	bcpPhones  = 16
	// A window is one warm-up period plus four measured ones. The burst hits
	// two and a half periods in, midway between two checkpoint rounds: a
	// burst that races a token makes which version is restored, and whether
	// the two failures are noticed together, a matter of milliseconds.
	bcpMeasuredPeriods = 4
	bcpFailAfter       = 5 * bcpPeriod / 2
	maxVoidWindows     = 2
	bcpWindowWall      = time.Duration(1+bcpMeasuredPeriods) * bcpPeriod / bcpSpeedup
)

// bcpVictims are the slots whose hosts fail together: the motion detector
// and dispatcher (n3) and the boarding model, join and sink (n8, the
// largest state). Their upstream neighbours notice both on their next send
// (within a face counter's 7 s service time), so with a 10 s debounce the
// controller recovers the burst once. A failed face counter is only
// noticed by a ping, ~55 simulated seconds later, and would split it.
var bcpVictims = []string{"n3", "n8"}

type ident struct {
	source string
	seq    uint64
}

type bcpOutput struct {
	id      ident
	arrival time.Duration // simulated
	latency time.Duration // simulated, source admission -> sink
}

// bcpWindow is one fresh system: its bookkeeping and its verdict.
type bcpWindow struct {
	clk *clock.Scaled

	mu        sync.Mutex
	nextSeq   map[string]uint64
	expected  map[ident]time.Duration // ingested tuples the app answers -> admission time
	ingested  int64
	seen      map[ident]int
	firstSeen map[ident]time.Duration
	outputs   []bcpOutput
	cameraOut uint64 // camera-path answers so far (dropID counts in these)
	// failAt and restoredAt bound the recovery: the burst, and the last
	// node.restore the journal shows (0 until known).
	failAt, restoredAt time.Duration
	lost               int64         // exposed answers that never arrived
	slowestBefore      time.Duration // largest latency of an answer that beat the burst
	dropID             uint64
	from, to           time.Duration // measured interval, simulated; to==0 while open

	setupS             float64
	cpuNs              int64
	mallocs            uint64
	netBytes           int64
	dead               bool
	recoveries         int
	failed             int64
	spans              []obs.Span
	events             []obs.Event
	clkBase            int64
	detectS, recoveryS float64
	outputGapS         float64
	commits            uint64
	lateDrain          bool
	ledgerRows         ledger
	drops              uint64
	measuredSink       int64
	measuredDur        time.Duration
	busTuples          uint64
}

// push is the workload.Push the feeds call: it mirrors the region's
// per-source sequence numbering (one feed goroutine per source, and the
// counter advances under the same lock as the Ingest call) and notes which
// tuples the application answers — occupied frames and clean bus readings.
func (w *bcpWindow) push(r *region.Region) workload.Push {
	return func(srcOp string, value interface{}, size int, kind string) {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.nextSeq[srcOp]++
		w.ingested++
		answers := false
		switch v := value.(type) {
		case bcpapp.Frame:
			answers = v.Planted > 0
		case bcpapp.BusInfo:
			answers = !v.Corrupt
			w.busTuples++
		}
		if answers {
			w.expected[ident{srcOp, w.nextSeq[srcOp]}] = w.clk.Now()
		}
		r.Ingest(srcOp, value, size, kind)
	}
}

func (w *bcpWindow) onSink(_ simnet.NodeID, t *tuple.Tuple) {
	at := w.clk.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if t.Source == "S1" {
		if w.cameraOut++; w.cameraOut == w.dropID {
			return // test hook: lose this answer
		}
	}
	id := ident{t.Source, t.Seq}
	w.seen[id]++
	if w.seen[id] == 1 {
		w.firstSeen[id] = at
	}
	w.outputs = append(w.outputs, bcpOutput{id: id, arrival: at, latency: at - t.Created})
}

// exposedLocked reports whether the protocol may drop this tuple's answer:
// it was in flight when the phones failed, or admitted before the last
// restore finished. Recovery replays such tuples from the preserved source
// log with sink output suppressed (the paper's catch-up), so they are
// delivered at most once; every other tuple, exactly once. "In flight"
// means admitted within twice the slowest pre-burst latency of the burst
// and not yet published: older tuples had ample time to come out.
func (w *bcpWindow) exposedLocked(id ident) bool {
	admitted := w.expected[id]
	if w.restoredAt == 0 || admitted > w.restoredAt || admitted < w.failAt-2*w.slowestBefore {
		return false
	}
	first, published := w.firstSeen[id]
	return !published || first >= w.failAt
}

// pending counts answers that must still arrive (exposed ones may not).
func (w *bcpWindow) pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for id := range w.expected {
		if w.seen[id] == 0 && !w.exposedLocked(id) {
			n++
		}
	}
	return n
}

func (w *bcpWindow) outputCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.outputs)
}

// runBCPWindow builds a fresh system, runs one window and tears it down.
func runBCPWindow(seed int64, rec *recorder, traced bool, dropID uint64, teardown *sync.WaitGroup) (*bcpWindow, error) {
	begin := now()
	phase := rec.beginPhase("setup")
	defer func() { rec.endPhase(phase) }()
	w := &bcpWindow{
		clk: clock.NewScaled(bcpSpeedup), clkBase: begin, dropID: dropID,
		nextSeq: make(map[string]uint64), expected: make(map[ident]time.Duration),
		seen: make(map[ident]int), firstSeen: make(map[ident]time.Duration),
	}
	graph, err := bcpapp.Graph()
	if err != nil {
		return nil, err
	}
	// Medium, cellular and controller settings are msbench's fig9 scenario,
	// except the debounce (2 s there), see bcpVictims.
	cell := simnet.NewCellular(w.clk, simnet.CellularConfig{
		UpBitsPerSecond: 0.16e6, DownBitsPerSecond: 0.7e6, Latency: 80 * time.Millisecond, SharedBps: 2e6,
	})
	ctrl := controller.New(controller.Config{
		Clock: w.clk, Cell: cell, CheckpointPeriod: bcpPeriod,
		PingInterval: 30 * time.Second, PingTimeout: 10 * time.Second, DebounceWindow: 10 * time.Second,
	})
	r, err := region.New(region.Config{
		ID: "r1", Graph: graph, Registry: bcpapp.Registry(bcpapp.Params{}),
		Scheme: ft.MSScheme, Phones: bcpPhones, Clock: w.clk,
		WiFi: simnet.WiFiConfig{BitsPerSecond: 3e6, LossProb: 0.02, Seed: seed},
		Cell: cell, ControllerID: ctrl.ID(),
		Broadcast: broadcast.Config{BlockSize: 1024}, PreserveBroadcast: true,
		OnSinkOutput: w.onSink,
	})
	if err != nil {
		return nil, err
	}
	ctrl.AddRegion(r)
	gen := workload.NewGenerator(w.clk)
	// Tear-down runs beside the next window and is joined before the run
	// reports: a region stopped in mid-dissemination waits out a 30 s
	// (simulated) bitmap-query timeout per already-stopped peer, which is
	// idle waiting, not work.
	defer func() {
		gen.Stop()
		teardown.Add(1)
		go func() {
			defer teardown.Done()
			r.Stop()
			ctrl.Stop()
		}()
	}()
	if traced {
		r.Obs().Tracer.SetSampleEvery(1)
	}
	r.Start()
	// The window's schedule counts from the controller's start, so the
	// burst keeps its distance from the checkpoint rounds (one per period
	// from here) whatever the set-up took.
	origin := w.clk.Now()
	ctrl.Start()
	push := w.push(r)

	// Warm-up tuple: one bus reading. The join publishes camera-rate
	// refreshes only once it knows a bus, so waiting for this answer also
	// makes every later occupied frame an expected output.
	push("S0", bcpapp.BusInfo{OnBoard: 20}, 512, "businfo")
	for deadline := time.Now().Add(5 * time.Second); w.outputCount() == 0; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("paper-bcp-fault: warm-up reading never reached the sink")
		}
		time.Sleep(100 * time.Microsecond)
	}
	w.setupS = float64(now()-begin) / 1e9
	rec.endPhase(phase)
	phase = rec.beginPhase("capacity") // the window proper, drain included

	gen.StartBCPCamera(push, workload.BCPCameraConfig{Period: 2000 * time.Millisecond, Seed: seed})
	gen.StartBCPBus(push, workload.BCPBusConfig{Period: 30 * time.Second, CorruptEvery: 10, Seed: seed})
	sleepUntil := func(at time.Duration) { w.clk.Sleep(origin + at - w.clk.Now()) }

	sleepUntil(bcpPeriod)
	var allocs metrics.AllocMeter
	allocs.Start()
	cpu0, net0 := cpuNs(), r.WiFi().Counters.TotalBytes()
	w.mu.Lock()
	w.from = w.clk.Now()
	w.mu.Unlock()

	sleepUntil(bcpFailAfter)
	t := now()
	w.mu.Lock()
	w.failAt = w.clk.Now()
	w.mu.Unlock()
	for _, slot := range bcpVictims {
		if pid, ok := r.Placement(slot); ok {
			r.FailPhone(pid)
		}
	}
	rec.call("InjectFailure", t, 0)

	sleepUntil(time.Duration(1+bcpMeasuredPeriods) * bcpPeriod)
	w.mu.Lock()
	w.to = w.clk.Now()
	w.mu.Unlock()
	w.cpuNs, w.netBytes = cpuNs()-cpu0, r.WiFi().Counters.TotalBytes()-net0
	w.mallocs, _ = allocs.Delta()

	// Drain: stop the feeds, then give in-flight tuples up to four periods
	// (one is typical; a burst split into two recoveries needs more).
	gen.Stop()
	w.events = r.Obs().Journal.Events()
	w.mu.Lock()
	for _, o := range w.outputs {
		if o.arrival < w.failAt && o.latency > w.slowestBefore {
			w.slowestBefore = o.latency
		}
	}
	for _, e := range w.events {
		if e.Kind == "node.restore" && time.Duration(e.At) > w.restoredAt {
			w.restoredAt = time.Duration(e.At)
		}
	}
	w.mu.Unlock()
	for deadline := w.clk.Now() + 4*bcpPeriod; w.pending() > 0 && w.clk.Now() < deadline; {
		time.Sleep(time.Millisecond)
	}
	w.lateDrain = w.pending() > 0
	w.dead = ctrl.RegionDead(r.ID())
	w.recoveries = ctrl.Recoveries(r.ID())
	w.commits = ctrl.Committed(r.ID())
	if traced {
		w.spans = r.Obs().Tracer.Spans()
		w.drops = r.Obs().Tracer.Drops()
		w.ledgerRows = make(ledger)
		regionLedger(w.ledgerRows, r, cell, int64(len(w.outputs)), w.clk.Now())
	}
	w.verdict()
	return w, nil
}

// verdict applies the Reliable claim to the finished window: the region
// is not DEAD, it recovered once for the one burst (runBCP reruns a few
// windows that did not, see there), every ingested tuple the app answers appears at the sink exactly once (at most
// once for those caught in the recovery, see exposedLocked), and nothing
// else appears.
func (w *bcpWindow) verdict() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id := range w.expected {
		switch n := w.seen[id]; {
		case n == 1:
		case n == 0 && w.exposedLocked(id):
			w.lost++
		default:
			w.failed++
		}
	}
	for id := range w.seen {
		if _, ok := w.expected[id]; !ok {
			w.failed++
		}
	}
	if w.dead {
		w.failed++
	}
	if w.recoveries != 1 {
		w.failed++
	}
	for _, o := range w.outputs {
		if o.arrival >= w.from && o.arrival <= w.to {
			w.measuredSink++
		}
	}
	w.measuredDur = w.to - w.from
	w.recoveryTimes()
}

// recoveryTimes reads the burst's timeline off the journal: phone.fail ->
// first replace.activate (detection and debounce), -> last node.restore
// (recovery), -> next sink output (the gap users see).
func (w *bcpWindow) recoveryTimes() {
	var fail, activate, restore int64
	for _, e := range w.events {
		switch e.Kind {
		case "phone.fail":
			if fail == 0 {
				fail = e.At
			}
		case "replace.activate":
			if activate == 0 {
				activate = e.At
			}
		case "node.restore":
			if e.At > restore {
				restore = e.At
			}
		}
	}
	if fail == 0 {
		return
	}
	if activate > fail {
		w.detectS = float64(activate-fail) / 1e9
	}
	if restore > fail {
		w.recoveryS = float64(restore-fail) / 1e9
		for _, o := range w.outputs {
			if int64(o.arrival) > restore {
				w.outputGapS = float64(int64(o.arrival)-fail) / 1e9
				break
			}
		}
	}
}

func runBCP(seed int64, seconds int, rec *recorder, l ledger, dropID uint64) (result, error) {
	baseGoroutines := runtime.NumGoroutine()
	n := int(time.Duration(seconds) * time.Second / bcpWindowWall)
	if n < 1 {
		n = 1
	}
	var wins []*bcpWindow
	var teardown sync.WaitGroup
	var notes []string
	// A window whose burst was recovered in more than one go is void and is
	// run again on the next seed: at speedup 200 a 50 ms stall of the host is
	// ten simulated seconds, enough to split the failure reports across the
	// debounce or to time a ping out, and the scenario measured is one burst,
	// one recovery. More than maxVoidWindows of them is a finding, not noise,
	// and fails the run.
	void := 0
	for i := 0; len(wins) < n; i++ {
		drop := uint64(0)
		if i == 0 {
			drop = dropID
		}
		w, err := runBCPWindow(seed+int64(i), rec, l != nil, drop, &teardown)
		if err != nil {
			teardown.Wait()
			return result{}, err
		}
		if w.recoveries > 1 && void < maxVoidWindows {
			void++
			notes = append(notes, fmt.Sprintf("void window (seed %d): burst split into %d recoveries, %d answers late or lost; rerun", seed+int64(i), w.recoveries, w.failed))
			continue
		}
		wins = append(wins, w)
	}
	teardown.Wait()

	res := result{notes: notes}
	var setups, detect, recov, cpu, allocs, net []float64
	var lat []int64
	var sink, lost int64
	var dur time.Duration
	var gap float64
	for i, w := range wins {
		res.Attempted += w.ingested
		res.Failed += w.failed
		setups = append(setups, w.setupS)
		for _, o := range w.outputs {
			if o.arrival >= w.from && o.arrival <= w.to {
				lat = append(lat, int64(o.latency))
			}
		}
		sink += w.measuredSink
		dur += w.measuredDur
		lost += w.lost
		if n := float64(w.measuredSink); n > 0 {
			cpu = append(cpu, float64(w.cpuNs)/1e3/n)
			allocs = append(allocs, float64(w.mallocs)/n)
			net = append(net, float64(w.netBytes)/n)
		}
		detect = append(detect, w.detectS)
		recov = append(recov, w.recoveryS)
		if w.outputGapS > gap {
			gap = w.outputGapS
		}
		if w.failed > 0 || w.lateDrain {
			res.notes = append(res.notes, fmt.Sprintf("window %d (seed %d): failed=%d dead=%v recoveries=%d undrained=%v",
				i, seed+int64(i), w.failed, w.dead, w.recoveries, w.lateDrain))
		}
	}
	res.Correct = res.Failed == 0
	if sink == 0 || dur == 0 {
		return res, fmt.Errorf("paper-bcp-fault: no sink output in the measured windows")
	}
	slices.Sort(lat)
	if len(lat) < 1000 {
		res.notes = append(res.notes, fmt.Sprintf("unresolved: only %d pooled sink outputs (need 1000)", len(lat)))
	}
	res.notes = append(res.notes, fmt.Sprintf("%d windows, %d pooled sink outputs over %.0f simulated s (times are simulated); latency p99 %.1f s; %d answers lost in recovery (at-most-once window); %d void windows rerun",
		n, len(lat), dur.Seconds(), float64(percentile(lat, 99))/1e9, lost, void))
	res.e2e = map[string]float64{
		"setup_s":        median(setups),
		"throughput_tps": float64(sink) / dur.Seconds(),
		"latency_p50_us": float64(percentile(lat, 50)) / 1e3,
		// Per sink tuple of each window's measured part, median over windows:
		// a window that overlaps its predecessor's tear-down or splits its
		// burst does not move these.
		"cpu_us_per_tuple":    median(cpu),
		"allocs_per_tuple":    median(allocs),
		"net_bytes_per_tuple": median(net),
	}
	if l == nil {
		return res, nil
	}

	// Ledger: counters summed or averaged over windows, recovery timeline
	// medians, and trace closure over every window's sampled tuples.
	var commits, recoveries float64
	for _, w := range wins {
		for k, v := range w.ledgerRows {
			l[k] += v / float64(len(wins))
		}
		commits += float64(w.commits)
		recoveries += float64(w.recoveries)
		l["obs.tracer_drops"] += float64(w.drops)
	}
	l["checkpoint.commits"] = commits
	l["controller.recoveries"] = recoveries
	l["controller.detect_sim_s_p50"] = median(detect)
	l["controller.recovery_sim_s_p50"] = median(recov)
	l["controller.output_gap_sim_s_max"] = gap
	l["e2e.latency_p99_us"] = float64(percentile(lat, 99)) / 1e3
	l["e2e.latency_pooled_p99_us"] = l["e2e.latency_p99_us"]
	bcpClosure(l, rec, wins)

	microSpan := rec.beginPhase("micro")
	runMicro(microShape{value: make([]byte, 1024), size: 1024, kind: "image",
		layers: []string{"simnet", "node", "checkpoint", "broadcast", "wireblob"}}, rec, l)
	rec.endPhase(microSpan)
	procLedger(l)
	l["proc.goroutines_end"] = float64(settledGoroutines(baseGoroutines) - baseGoroutines)
	return res, nil
}

// bcpClosure pools every window's camera-path journeys (trace ids above
// the bus feed's, which shares the id space) and closes their spans
// against the sink latency the harness saw, all in simulated time. It
// also exports the first window's journeys and journal as spans.
func bcpClosure(l ledger, rec *recorder, wins []*bcpWindow) {
	var all []tupleTrace
	latOf := make(map[uint64]int64)
	for wi, w := range wins {
		traces := tupleTraces(w.spans)
		toHarness := func(at int64) int64 { return w.clkBase + at/bcpSpeedup }
		if wi == 0 {
			exportTupleSpans(rec, traces, toHarness)
		}
		exportJournalSpans(rec, w.events, toHarness)
		sinkLat := make(map[uint64]int64)
		for _, o := range w.outputs {
			if o.id.source == "S1" {
				sinkLat[o.id.seq] = int64(o.latency)
			}
		}
		for _, tt := range traces {
			if tt.id <= w.busTuples+1 {
				continue
			}
			if lat, ok := sinkLat[tt.id]; ok {
				// Re-key so windows do not collide.
				tt.id = uint64(wi)<<32 | tt.id
				latOf[tt.id] = lat
				all = append(all, tt)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	closure(l, all, func(tt tupleTrace) (int64, int64, bool) { v, ok := latOf[tt.id]; return v, 0, ok })
}
