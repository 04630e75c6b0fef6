package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/metrics"
)

// The three host-bound workloads share one run shape: set-up, an open-loop
// latency phase at a frozen rate, a closed-loop capacity phase, drain,
// check. Only the system under test differs.

// sut is a started system under test. Tuples are numbered 1, 2, 3, ... in
// offer order; the system calls collector.deliver once per tuple reaching
// its sink.
type sut interface {
	// offer admits the next tuple. Generator goroutine only; must not block
	// for long.
	offer(id uint64)
	// flush pushes out anything offer is still holding back.
	flush()
	// netBytes reads the bytes put on the medium so far, all classes.
	netBytes() int64
	// ledger adds the workload's per-layer counters after the phases.
	ledger(l ledger, sinkTuples int64)
	// close stops everything the system started and waits for it.
	close()
}

type hostWorkload struct {
	name string
	// rate is the latency phase's frozen offered rate, tuples per second.
	rate int
	// quantum is how many tuples the source hands over at once: 1 for the
	// regions, 16 for the socket chain's frames. The generator waits for a
	// whole quantum to be due before sending it.
	quantum int
	// prepare derives the run's inputs from the seed (not timed).
	prepare func(seed int64) any
	// build constructs and starts the system (timed as set-up).
	build func(c *collector, in any, rec *recorder) (sut, error)
	// shape is the tuple shape the micro phase times layer calls on.
	shape microShape
}

const (
	warmTuples  = 4096 // multiple of every quantum
	maxInFlight = 4096
	wakeEvery   = 512 // deliveries between nudges of the closed-loop generator
	setupRounds = 9
	maxIDs      = 1 << 25
	sampleEvery = 256 // the program tracer's sampling period in traced runs
)

// collector is the sink side of the harness: exactly-once bookkeeping, the
// reference verdict per tuple, and latency samples for the open-loop phase.
type collector struct {
	mu      sync.Mutex
	seen    []uint64 // bitmap by id
	wrong   int64    // first deliveries that failed the reference
	dups    int64    // deliveries of an id already seen
	stray   int64    // ids never offered
	dropID  uint64   // test hook: deliveries of this id are discarded
	unique  atomic.Int64
	offered atomic.Uint64
	firstAt atomic.Int64
	// wake nudges the closed-loop generator every wakeEvery deliveries.
	wake chan struct{}

	// Latency phase: tuple latBase+1+i is due at latStart + i*intervalNs.
	latBase    uint64
	latN       uint64
	latStart   atomic.Int64
	intervalNs float64
	lat        []int64 // arrival - due, ns; -1 until delivered
}

func newCollector() *collector {
	return &collector{seen: make([]uint64, maxIDs/64), wake: make(chan struct{}, 1)}
}

func (c *collector) dueOf(i uint64) int64 {
	return c.latStart.Load() + int64(float64(i)*c.intervalNs)
}

// deliver records tuple id reaching the sink; ok is the workload's
// reference verdict on its value.
func (c *collector) deliver(id uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id == c.dropID {
		return
	}
	if id == 0 || id > c.offered.Load() || id >= maxIDs {
		c.stray++
		return
	}
	w, b := id>>6, uint64(1)<<(id&63)
	if c.seen[w]&b != 0 {
		c.dups++
		return
	}
	c.seen[w] |= b
	if !ok {
		c.wrong++
	}
	if i := id - c.latBase - 1; id > c.latBase && i < c.latN {
		c.lat[i] = now() - c.dueOf(i)
	}
	switch n := c.unique.Add(1); {
	case n == 1:
		c.firstAt.Store(now())
	case n%wakeEvery == 0:
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// failed counts offered tuples not delivered exactly once and correct, and
// says how they failed.
func (c *collector) failed() (int64, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	missing := int64(c.offered.Load()) - c.unique.Load()
	n := missing + c.wrong + c.dups + c.stray
	return n, fmt.Sprintf("%d missing, %d wrong value, %d duplicate, %d never offered", missing, c.wrong, c.dups, c.stray)
}

// waitUnique sleeps until n tuples have been delivered or the deadline.
func (c *collector) waitUnique(n int64, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for c.unique.Load() < n {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// hostRun carries one run's measurements from the phases to the report.
type hostRun struct {
	setupS        []float64
	latWin50      []float64 // per 1 s window of due time, µs
	latWin99      []float64
	pooledP99Us   float64
	minWinSamples int
	lateNs        []int64 // generator lateness per send, ns
	backlogEnd    int64
	capWinTPS     []float64 // per ~1 s window, all windows (untraced) or sampler-off windows
	capWinTPSOn   []float64 // sampler-on windows of a traced run
	capTuples     int64
	capCPUNs      int64
	capMallocs    uint64
	netBytes      int64
	sinkTuples    int64
	notes         []string
}

func runHost(w hostWorkload, seed int64, seconds int, rec *recorder, l ledger, dropID uint64) (result, error) {
	baseGoroutines := runtime.NumGoroutine()
	in := w.prepare(seed)
	var run hostRun

	// Set-up, several times over: each round builds a fresh system, pushes
	// a warm-up burst and times build start -> first tuple at the sink. The
	// last round's system is the one measured.
	setupSpan := rec.beginPhase("setup")
	var c *collector
	var s sut
	for round := 0; round < setupRounds; round++ {
		begin := now()
		c = newCollector()
		c.dropID = dropID
		var err error
		if s, err = w.build(c, in, rec); err != nil {
			return result{}, fmt.Errorf("%s: build: %w", w.name, err)
		}
		for id := uint64(1); id <= warmTuples; id++ {
			c.offered.Store(id)
			s.offer(id)
		}
		s.flush()
		if !c.waitUnique(1, 10*time.Second) {
			s.close()
			return result{}, fmt.Errorf("%s: no warm-up tuple reached the sink", w.name)
		}
		run.setupS = append(run.setupS, float64(c.firstAt.Load()-begin)/1e9)
		if round < setupRounds-1 {
			s.close()
		}
	}
	defer s.close()
	warmGoal := int64(warmTuples)
	if dropID >= 1 && dropID <= warmTuples {
		warmGoal--
	}
	if !c.waitUnique(warmGoal, 10*time.Second) {
		run.notes = append(run.notes, "warm-up did not drain")
	}
	rec.endPhase(setupSpan)

	phase := time.Duration(seconds) * time.Second / 2
	net0, sink0 := s.netBytes(), c.unique.Load()

	latSpan := rec.beginPhase("latency")
	latencyPhase(w, c, s, phase, &run)
	c.waitUnique(int64(c.offered.Load()), 3*time.Second)
	rec.endPhase(latSpan)

	capSpan := rec.beginPhase("capacity")
	capacityPhase(w, c, s, phase, rec != nil, &run)
	rec.endPhase(capSpan)

	// Drain: everything offered must reach the sink before the verdict.
	s.flush()
	if !c.waitUnique(int64(c.offered.Load()), 5*time.Second) {
		run.notes = append(run.notes, "drain deadline hit")
	}
	run.netBytes = s.netBytes() - net0
	run.sinkTuples = c.unique.Load() - sink0

	latencyStats(w, c, &run)
	slices.Sort(run.lateNs)
	lateP99 := float64(percentile(run.lateNs, 99)) / 1e3
	capWindows := append(append([]float64(nil), run.capWinTPS...), run.capWinTPSOn...)
	if n, ok := s.(interface{ notes() []string }); ok {
		run.notes = append(run.notes, n.notes()...)
	}
	if l != nil {
		s.ledger(l, run.sinkTuples)
		l["gen.late_p99_us"] = lateP99
		l["gen.backlog_end"] = float64(run.backlogEnd)
		l["e2e.latency_p99_us"] = median(run.latWin99)
		l["e2e.latency_pooled_p99_us"] = run.pooledP99Us
		if on, off := median(run.capWinTPSOn), median(run.capWinTPS); off > 0 && on > 0 {
			l["obs.trace_overhead_pct"] = (off - on) / off * 100
		}
	}
	s.close()
	if l != nil {
		microSpan := rec.beginPhase("micro")
		runMicro(w.shape, rec, l)
		rec.endPhase(microSpan)
		if base := l["baseline.single_thread_tps"]; base > 0 {
			l["region.efficiency_vs_inline"] = median(run.capWinTPS) / base * 100
		}
		procLedger(l)
		l["proc.goroutines_end"] = float64(settledGoroutines(baseGoroutines) - baseGoroutines)
	}

	res := result{Attempted: int64(c.offered.Load()), notes: run.notes}
	var how string
	if res.Failed, how = c.failed(); res.Failed > 0 {
		res.notes = append(res.notes, "failed: "+how)
	}
	res.Correct = res.Failed == 0
	if lateP99 > 1000 || run.backlogEnd > int64(w.rate/1000+w.quantum) {
		res.notes = append(res.notes, fmt.Sprintf("unresolved: generator late p99 %.0f us, backlog at phase end %d", lateP99, run.backlogEnd))
	}
	if run.minWinSamples < 1000 {
		res.notes = append(res.notes, fmt.Sprintf("unresolved: a latency window holds only %d samples", run.minWinSamples))
	}
	res.notes = append(res.notes,
		fmt.Sprintf("latency p99 %.1f us (median of windows), %.1f us pooled over %d samples; %d windows of >= %d; generator late p99 %.0f us",
			median(run.latWin99), run.pooledP99Us, c.latN, len(run.latWin99), run.minWinSamples, lateP99),
		fmt.Sprintf("latency window p50s (us): %.1f", run.latWin50),
		fmt.Sprintf("capacity: %d tuples; windows (t/s): %.0f", run.capTuples, capWindows))
	capTuples := float64(run.capTuples)
	if capTuples == 0 || run.sinkTuples == 0 {
		return res, fmt.Errorf("%s: no tuples reached the sink in the measured phases", w.name)
	}
	res.e2e = map[string]float64{
		"setup_s":             median(run.setupS),
		"throughput_tps":      median(capWindows),
		"latency_p50_us":      median(run.latWin50),
		"cpu_us_per_tuple":    float64(run.capCPUNs) / 1e3 / capTuples,
		"allocs_per_tuple":    float64(run.capMallocs) / capTuples,
		"net_bytes_per_tuple": float64(run.netBytes) / float64(run.sinkTuples),
	}
	return res, nil
}

// latencyPhase offers tuples open loop at the workload's frozen rate: tuple
// i of the phase is due at start + i/rate. The generator sleeps to the due
// time of the next whole quantum, then sends every quantum that is due; it
// never spins.
func latencyPhase(w hostWorkload, c *collector, s sut, phase time.Duration, run *hostRun) {
	// pause parks this thread in nanosleep; keep the goroutine on it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	q := uint64(w.quantum)
	n := uint64(float64(w.rate) * phase.Seconds())
	n -= n % q
	c.mu.Lock()
	c.latBase = c.offered.Load()
	c.latN = n
	c.intervalNs = 1e9 / float64(w.rate)
	c.lat = make([]int64, n)
	for i := range c.lat {
		c.lat[i] = -1
	}
	c.mu.Unlock()
	run.lateNs = make([]int64, 0, n/q)
	start := now() + int64(time.Millisecond)
	c.latStart.Store(start)
	nominalEnd := c.dueOf(n)
	run.backlogEnd = -1
	for next := uint64(0); next < n; {
		if d := c.dueOf(next+q-1) - now(); d > 0 {
			pause(d)
		}
		t := now()
		if run.backlogEnd < 0 && t >= nominalEnd {
			run.backlogEnd = int64(n - next)
		}
		due := uint64(float64(t-start)/c.intervalNs) + 1 // tuples due by t
		if due > n {
			due = n
		}
		due -= due % q
		for next < due {
			run.lateNs = append(run.lateNs, t-c.dueOf(next+q-1))
			for k := uint64(0); k < q; k++ {
				id := c.latBase + next + 1
				c.offered.Store(id)
				s.offer(id)
				next++
			}
		}
	}
	if run.backlogEnd < 0 {
		run.backlogEnd = 0
	}
	s.flush()
}

// capacityPhase offers tuples closed loop from this one goroutine with at
// most maxInFlight outstanding, and cuts the phase into ~1 s windows of
// delivered tuples. CPU and allocations are phase totals. In a traced run
// the program's sampler is on in every other window, so the same run yields
// the untraced and the traced rate.
func capacityPhase(w hostWorkload, c *collector, s sut, phase time.Duration, traced bool, run *hostRun) {
	q := uint64(w.quantum)
	tr, _ := s.(interface{ setSampling(on bool) })
	begin := now()
	end := begin + int64(phase)
	var allocs metrics.AllocMeter
	allocs.Start()
	cpu0, d0 := cpuNs(), c.unique.Load()
	winStart, winCount, win := begin, d0, 0
	samplerOn := false
	closeWindow := func(t int64) {
		d := c.unique.Load()
		tps := float64(d-winCount) / (float64(t-winStart) / 1e9)
		if samplerOn {
			run.capWinTPSOn = append(run.capWinTPSOn, tps)
		} else {
			run.capWinTPS = append(run.capWinTPS, tps)
		}
		winStart, winCount = t, d
		win++
		if traced && tr != nil {
			samplerOn = win%2 == 1
			tr.setSampling(samplerOn)
		}
	}
	// The generator tops the pipeline up to maxInFlight, then blocks until
	// the sink has taken wakeEvery more tuples (or a tick passes, to notice
	// window and phase ends). It neither spins nor sleeps on a timer whose
	// granularity would shape the load.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	id := c.offered.Load()
	for {
		t := now()
		if t >= end {
			break
		}
		if t-winStart >= int64(time.Second) {
			closeWindow(t)
		}
		for id+q < maxIDs && int64(id+q)-c.unique.Load() <= maxInFlight {
			for k := uint64(0); k < q; k++ {
				id++
				c.offered.Store(id)
				s.offer(id)
			}
		}
		select {
		case <-c.wake:
		case <-tick.C:
		}
	}
	t := now()
	if t-winStart >= int64(time.Second)/2 {
		closeWindow(t)
	}
	if traced && tr != nil {
		tr.setSampling(true)
	}
	run.capTuples = c.unique.Load() - d0
	run.capCPUNs = cpuNs() - cpu0
	run.capMallocs, _ = allocs.Delta()
}

// latencyStats cuts the latency phase into 1 s windows of due time and
// takes each window's p50 and p99; the run reports the medians of those.
func latencyStats(w hostWorkload, c *collector, run *hostRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	per := w.rate
	run.minWinSamples = per
	var pooled []int64
	for lo := 0; lo+per <= len(c.lat); lo += per {
		win := make([]int64, 0, per)
		for _, v := range c.lat[lo : lo+per] {
			if v >= 0 {
				win = append(win, v)
			}
		}
		if len(win) < run.minWinSamples {
			run.minWinSamples = len(win)
		}
		slices.Sort(win)
		run.latWin50 = append(run.latWin50, float64(percentile(win, 50))/1e3)
		run.latWin99 = append(run.latWin99, float64(percentile(win, 99))/1e3)
		pooled = append(pooled, win...)
	}
	slices.Sort(pooled)
	run.pooledP99Us = float64(percentile(pooled, 99)) / 1e3
}

// harnessLatency returns the latency the harness measured for a latency-
// phase tuple and the tuple's due time, for trace closure.
func (c *collector) harnessLatency(id uint64) (lat, due int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id <= c.latBase || id-c.latBase-1 >= c.latN {
		return 0, 0, false
	}
	i := id - c.latBase - 1
	return c.lat[i], c.dueOf(i), c.lat[i] >= 0
}
