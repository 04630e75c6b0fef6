package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/stream"
)

// mix is splitmix64: the deterministic input function of the relay
// workloads (tuple id and seed in, payload word out).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func relayMap1(v uint64) uint64 { return v*3 + 1 }
func relayMap2(v uint64) uint64 { return v ^ (v >> 7) }

// regionSUT is a started region (plus controller, for the checkpointing
// workload) behind the sut interface.
type regionSUT struct {
	r        *region.Region
	ctrl     *controller.Controller
	cell     *simnet.Cellular
	clk      *clock.Scaled
	clkBase  int64 // harness time of the clock's epoch
	src      string
	size     int
	kind     string
	value    func(id uint64) interface{}
	rec      *recorder
	c        *collector
	drain    *spanDrain
	ingestNs []int64
	extra    func(l ledger)  // workload-specific ledger rows
	noteFn   func() []string // workload-specific notes
	once     sync.Once
}

func (s *regionSUT) notes() []string {
	if s.noteFn == nil {
		return nil
	}
	return s.noteFn()
}

func (s *regionSUT) offer(id uint64) {
	// Time the calls for the tuples the program's sampler picks (it keys on
	// seq-1), so benchmark spans and program spans describe the same tuples.
	if s.rec != nil && (id-1)%sampleEvery == 0 {
		t := now()
		s.r.Ingest(s.src, s.value(id), s.size, s.kind)
		s.ingestNs = append(s.ingestNs, now()-t)
		s.rec.call("Ingest", t, id)
		return
	}
	s.r.Ingest(s.src, s.value(id), s.size, s.kind)
}

func (s *regionSUT) flush() {}

func (s *regionSUT) netBytes() int64 { return s.r.WiFi().Counters.TotalBytes() }

func (s *regionSUT) setSampling(on bool) {
	n := 0
	if on {
		n = sampleEvery
	}
	s.r.Obs().Tracer.SetSampleEvery(n)
}

func (s *regionSUT) close() {
	s.once.Do(func() {
		if s.drain != nil {
			s.drain.close()
		}
		if s.ctrl != nil {
			s.ctrl.Stop()
		}
		s.r.Stop()
	})
}

// toHarness maps a program-clock reading (simulated ns) to harness ns.
func (s *regionSUT) toHarness(at int64) int64 {
	return s.clkBase + int64(float64(at)/s.clk.Speedup())
}

func (s *regionSUT) ledger(l ledger, sinkTuples int64) {
	regionLedger(l, s.r, s.cell, sinkTuples, s.clk.Now())
	l["region.ingest_call_ns"] = meanInt64(s.ingestNs)
	if s.ctrl != nil {
		l["checkpoint.commits"] = float64(s.ctrl.Committed(s.r.ID()))
		l["controller.recoveries"] = float64(s.ctrl.Recoveries(s.r.ID()))
	}
	if s.extra != nil {
		s.extra(l)
	}
	if s.drain == nil {
		return
	}
	spans, drops := s.drain.close()
	s.drain = nil
	l["obs.tracer_drops"] = float64(drops)
	traces := tupleTraces(spans)
	closure(l, traces, func(tt tupleTrace) (int64, int64, bool) {
		lat, due, ok := s.c.harnessLatency(tt.id)
		return lat, s.toHarness(tt.first) - due, ok
	})
	exportTupleSpans(s.rec, traces, s.toHarness)
	exportJournalSpans(s.rec, s.r.Obs().Journal.Events(), s.toHarness)
}

// regionLedger fills the rows every region-backed workload reads from the
// program's exported counters.
func regionLedger(l ledger, r *region.Region, cell *simnet.Cellular, sinkTuples int64, simNow time.Duration) {
	wc := &r.WiFi().Counters
	data := wc.Bytes(simnet.ClassData)
	ckpt := wc.Bytes(simnet.ClassCheckpoint) + wc.Bytes(simnet.ClassBitmap) +
		wc.Bytes(simnet.ClassPreserve) + wc.Bytes(simnet.ClassReplication)
	ctrl := wc.TotalBytes() - data - ckpt
	if cell != nil {
		ctrl += cell.Counters.TotalBytes()
	}
	l["simnet.data_bytes"] += float64(data)
	l["simnet.ckpt_bytes"] += float64(ckpt)
	l["simnet.ctrl_bytes"] += float64(ctrl)
	l["simnet.inbox_drops"] += float64(r.InboxDrops())
	var air time.Duration
	stats := r.WiFi().ChannelStats()
	for _, cs := range stats {
		air += cs.Airtime
	}
	if simNow > 0 && len(stats) > 0 {
		l["simnet.airtime_busy_share"] = float64(air) / float64(simNow) / float64(len(stats)) * 100
	}
	l["region.duplicate_outputs"] += float64(r.DuplicateOutputs())

	bs := r.BatchStats()
	l["node.batch_mean_size"] = bs.Mean()
	if sinkTuples > 0 {
		l["node.batch_flushes_per_ktuple"] = float64(bs.Flushes()) / float64(sinkTuples) * 1000
	}
	var waits, depths, ops obs.Histogram
	for _, v := range r.Obs().Waits() {
		waits.Merge(v.Hist)
	}
	for _, v := range r.Obs().Depths() {
		depths.Merge(v.Hist)
	}
	var busiest, slowest float64
	for _, v := range r.Obs().Ops() {
		ops.Merge(v.Hist)
		if simNow > 0 {
			if share := float64(v.Hist.Sum()) / float64(simNow) * 100; share > busiest {
				busiest = share
			}
		}
		if m := v.Hist.Mean(); m > slowest {
			slowest = m
		}
	}
	l["node.edge_wait_us_p50"] = float64(waits.Percentile(50)) / 1e3
	l["node.edge_wait_us_p99"] = float64(waits.Percentile(99)) / 1e3
	l["node.queue_depth_p99"] = float64(depths.Percentile(99))
	l["operator.op_latency_us_p50"] = float64(ops.Percentile(50)) / 1e3
	l["operator.op_latency_us_p99"] = float64(ops.Percentile(99)) / 1e3
	l["operator.max_busy_share"] = busiest
	l["operator.slowest_op_us_mean"] = slowest / 1e3

	cs := r.CkptStats()
	l["checkpoint.pause_us_mean"] = float64(cs.PauseMean()) / 1e3
	l["checkpoint.pause_us_max"] = float64(cs.PauseMax()) / 1e3
	l["checkpoint.delta_ratio"] = cs.DeltaRatio() * 100
	blob, _ := cs.Bytes()
	if n := cs.Count(); n > 0 {
		// Blobs are per slot; a commit covers every slot's blob of a version.
		l["checkpoint.blob_bytes_per_commit"] = float64(blob) / float64(n) * float64(len(r.Graph().Slots()))
		// Dissemination cost: checkpoint datagrams sent over 1 KB blocks needed.
		if needed := float64(blob) / 1024; needed > 0 {
			sent := float64(wc.Messages(simnet.ClassCheckpoint))
			l["broadcast.datagrams_per_block"] = sent / needed
			if sent > needed {
				l["broadcast.retransmit_share"] = (sent - needed) / sent * 100
			}
		}
	}
	src, edge := r.PreservedBytes()
	if sinkTuples > 0 {
		l["storage.preserved_bytes_per_tuple"] = float64(src+edge) / float64(sinkTuples)
	}
	var retained int64
	for _, id := range r.AlivePhones() {
		if st := r.Store(id); st != nil {
			retained += st.RetainedBytes()
		}
	}
	l["storage.retained_bytes_end"] += float64(retained)
}

// exportTupleSpans turns the program's sampled tuple journeys into
// benchmark spans: one "tuple" span per journey under the phase it started
// in, with one child per hop. Journeys beyond a budget are skipped.
func exportTupleSpans(rec *recorder, traces []tupleTrace, toHarness func(int64) int64) {
	if rec == nil {
		return
	}
	const budget = 4000
	step := len(traces)/budget + 1
	for i := 0; i < len(traces); i += step {
		tt := traces[i]
		first := toHarness(tt.first)
		parent := rec.add("tuple", first, toHarness(tt.last), rec.phaseAt(first), tt.id)
		for j := 1; j < len(tt.spans); j++ {
			rec.add(hopCategory(tt.spans[j].Kind), toHarness(tt.spans[j-1].At), toHarness(tt.spans[j].At), parent, tt.id)
		}
	}
}

// exportJournalSpans adds one span per checkpoint version (first ckpt.begin
// to last ckpt.commit) and one per recovery (phone.fail to the last
// node.restore that follows), from the region's lifecycle journal.
func exportJournalSpans(rec *recorder, events []obs.Event, toHarness func(int64) int64) {
	if rec == nil {
		return
	}
	type iv struct{ lo, hi int64 }
	ckpt := make(map[uint64]*iv)
	var fails, restores []int64
	for _, e := range events {
		switch e.Kind {
		case "ckpt.begin", "ckpt.seal", "ckpt.commit":
			v := ckpt[e.Version]
			if v == nil {
				v = &iv{lo: e.At, hi: e.At}
				ckpt[e.Version] = v
			}
			if e.At < v.lo {
				v.lo = e.At
			}
			if e.At > v.hi {
				v.hi = e.At
			}
		case "phone.fail":
			fails = append(fails, e.At)
		case "node.restore":
			restores = append(restores, e.At)
		}
	}
	versions := make([]uint64, 0, len(ckpt))
	for v := range ckpt {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	for _, v := range versions {
		lo := toHarness(ckpt[v].lo)
		rec.add(fmt.Sprintf("checkpoint v%d", v), lo, toHarness(ckpt[v].hi), rec.phaseAt(lo), 0)
	}
	if len(fails) > 0 && len(restores) > 0 {
		slices.Sort(fails)
		slices.Sort(restores)
		if last := restores[len(restores)-1]; last > fails[0] {
			lo := toHarness(fails[0])
			rec.add("recovery", lo, toHarness(last), rec.phaseAt(lo), 0)
		}
	}
}

// hostRegionConfig is the medium and phone model shared by the two
// host-bound region workloads: real time, a WiFi fast and clean enough
// that the host, not modelled airtime, is the limit.
func hostRegionConfig(id string, p *stream.Pipeline, clk *clock.Scaled, seed int64) region.Config {
	reg := obs.NewRegistry()
	reg.Journal = obs.NewJournal(1 << 15)
	return region.Config{
		ID:       id,
		Graph:    p.Graph(),
		Registry: p.Registry(),
		Phones:   8,
		Clock:    clk,
		WiFi:     simnet.WiFiConfig{BitsPerSecond: 1e9, Seed: seed},
		// The run outlives a stock battery; energy is not under test.
		PhoneCfg: phone.Config{BatteryJoules: 1e12},
		Obs:      reg,
	}
}

func (s *regionSUT) startTracing(rec *recorder) {
	if rec == nil {
		return
	}
	s.rec = rec
	s.setSampling(true)
	s.drain = startSpanDrain(s.r.Obs().Tracer)
}

// ---- region-relay --------------------------------------------------------

func relayPipeline() (*stream.Pipeline, error) {
	return stream.From[uint64]("src").
		Map("m1", relayMap1).
		Map("m2", relayMap2).
		Sink("out", nil).
		Build()
}

func relayWorkload() hostWorkload {
	return hostWorkload{
		name:    "region-relay",
		rate:    relayRate,
		quantum: 1,
		prepare: func(seed int64) any { return uint64(seed) },
		build: func(c *collector, in any, rec *recorder) (sut, error) {
			seed := in.(uint64)
			p, err := relayPipeline()
			if err != nil {
				return nil, err
			}
			s := &regionSUT{src: "src", size: 64, kind: "relay", c: c, clkBase: now(), clk: clock.NewScaled(1)}
			s.value = func(id uint64) interface{} { return mix(seed ^ id) }
			cfg := hostRegionConfig("relay", p, s.clk, int64(seed))
			cfg.Scheme = ft.BaseScheme
			// Reference: the value transform, recomputed from the tuple's
			// identity; the collector checks identities are contiguous and
			// seen once.
			cfg.OnSinkOutput = func(_ simnet.NodeID, t *tuple.Tuple) {
				v, _ := t.Value.(uint64)
				c.deliver(t.Seq, v == relayMap2(relayMap1(mix(seed^t.Seq))))
			}
			if s.r, err = region.New(cfg); err != nil {
				return nil, err
			}
			s.r.Start()
			s.startTracing(rec)
			return s, nil
		},
		shape: microShape{value: uint64(0x0123456789abcdef), size: 64, kind: "relay", pipeline: relayPipeline,
			layers: []string{"simnet", "node", "baseline"}},
	}
}

// ---- region-keyed-ckpt ---------------------------------------------------

const (
	keyedKeys  = 100000
	keyedTable = 1 << 20 // pre-drawn key ranks, cycled by tuple id
)

// keyedInput is the seed's input: a cycle of Zipf(1.0) key ranks and the
// key strings. Key names are hex of a hash so they spread over the four
// instances' byte ranges.
type keyedInput struct {
	ranks []uint32
	names []string
}

func (in *keyedInput) rank(id uint64) uint32 { return in.ranks[id&(keyedTable-1)] }

// value is the tuple's payload: the key rank in the integer part (KeyBy
// reads it back) plus an exact binary fraction that varies by tuple.
func (in *keyedInput) value(id uint64) float64 {
	return float64(in.rank(id)) + float64(id&7)/8
}

// keyName spells a key rank as 8 hex digits of a bijective 32-bit scramble:
// distinct ranks get distinct names, spread evenly over the leading digit
// the partition table splits on.
func keyName(rank uint32) string {
	x := rank * 0x9e3779b1
	x ^= x >> 15
	x *= 0x85ebca77
	x ^= x >> 13
	return fmt.Sprintf("%08x", x)
}

func prepareKeyed(seed int64) any {
	in := &keyedInput{ranks: make([]uint32, keyedTable), names: make([]string, keyedKeys)}
	for i := range in.names {
		in.names[i] = keyName(uint32(i))
	}
	// Zipf with exponent exactly 1 (math/rand's generator needs s > 1):
	// invert the cumulative harmonic weights.
	cum := make([]float64, keyedKeys)
	var h float64
	for i := range cum {
		h += 1 / float64(i+1)
		cum[i] = h
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range in.ranks {
		in.ranks[i] = uint32(sort.SearchFloat64s(cum, rng.Float64()*h))
	}
	return in
}

// newKeyedSum is one keyed running-sum instance. Besides its per-key table
// it carries 2 MB of modelled auxiliary state, so that from the first round
// on a checkpoint pauses each instance for several milliseconds and p99
// sits in that pause rather than at its edge.
func newKeyedSum() operator.Operator {
	agg := operator.NewAggregate("sum")
	agg.ExtraBytes = 2 << 20
	return agg
}

func keyedPipeline(in *keyedInput) (*stream.Pipeline, error) {
	return stream.From[float64]("src").
		KeyBy("key", func(v float64) string { return in.names[int(v)] }).
		Via("sum", newKeyedSum, stream.WithParallelism(4)).
		Sink("out", nil).
		Build()
}

func keyedWorkload() hostWorkload {
	return hostWorkload{
		name:    "region-keyed-ckpt",
		rate:    keyedRate,
		quantum: 1,
		prepare: prepareKeyed,
		build: func(c *collector, inAny any, rec *recorder) (sut, error) {
			in := inAny.(*keyedInput)
			p, err := keyedPipeline(in)
			if err != nil {
				return nil, err
			}
			s := &regionSUT{src: "src", size: 64, kind: "reading", c: c, clkBase: now(), clk: clock.NewScaled(1)}
			s.value = func(id uint64) interface{} { return in.value(id) }
			s.cell = simnet.NewCellular(s.clk, simnet.CellularConfig{
				UpBitsPerSecond: 10e6, DownBitsPerSecond: 10e6, Latency: time.Millisecond,
			})
			// Pings are sub-second so that no clock.After sleeper outlives
			// the run by more than that.
			s.ctrl = controller.New(controller.Config{
				Clock: s.clk, Cell: s.cell,
				CheckpointPeriod: 500 * time.Millisecond,
				PingInterval:     500 * time.Millisecond,
				PingTimeout:      250 * time.Millisecond,
			})
			cfg := hostRegionConfig("keyed", p, s.clk, 1)
			cfg.Scheme = ft.MSScheme
			cfg.Cell = s.cell
			cfg.ControllerID = s.ctrl.ID()
			cfg.Broadcast = broadcast.Config{BlockSize: 1024, QueryTimeout: 50 * time.Millisecond}
			cfg.PreserveBroadcast = true
			// Reference: per-key running sums, kept here in arrival order.
			// Tuples of one key take one path, so they arrive in offer
			// order and the running mean must match exactly.
			sums := make([]float64, keyedKeys)
			counts := make([]float64, keyedKeys)
			cfg.OnSinkOutput = func(_ simnet.NodeID, t *tuple.Tuple) {
				k := in.rank(t.Seq)
				sums[k] += in.value(t.Seq)
				counts[k]++
				got, _ := t.Value.(float64)
				c.deliver(t.Seq, got == sums[k]/counts[k])
			}
			if s.r, err = region.New(cfg); err != nil {
				return nil, err
			}
			if err := s.r.SeedKeyRanges("sum", []string{"4", "8", "c"}); err != nil {
				return nil, err
			}
			s.ctrl.AddRegion(s.r)
			s.r.Start()
			s.ctrl.Start()
			s.extra = func(l ledger) { keyedLedger(l, s) }
			s.noteFn = func() []string { return keyedNotes(s, c) }
			s.startTracing(rec)
			return s, nil
		},
		shape: microShape{value: 12345.625, size: 64, kind: "0123abcd", pipeline: func() (*stream.Pipeline, error) {
			return keyedPipeline(prepareKeyed(1).(*keyedInput))
		}, layers: []string{"simnet", "node", "keyed", "checkpoint", "broadcast", "wireblob", "baseline"}},
	}
}

// keyedLedger adds the keyed row: how unevenly the four instances were
// loaded (busiest instance over the mean).
func keyedLedger(l ledger, s *regionSUT) {
	grp, ok := s.r.KeyedGroup("sum")
	if !ok {
		return
	}
	var total, max float64
	insts := grp.Instances()
	for _, inst := range insts {
		pid, ok := s.r.Placement(s.r.Graph().SlotOf(inst))
		if !ok {
			continue
		}
		n := float64(s.r.Node(pid).Processed())
		total += n
		max = math.Max(max, n)
	}
	if total > 0 {
		l["keyed.instance_skew"] = max / (total / float64(len(insts)))
	}
}

// keyedNotes reports what makes the workload what it claims to be: commits
// happened, and enough latency-phase tuples were due inside a checkpoint
// pause (3%) for p99 to sit firmly in that tail.
func keyedNotes(s *regionSUT, c *collector) []string {
	share := pauseShare(s, c)
	note := fmt.Sprintf("%d checkpoint commits; %.1f%% of latency-phase tuples were due inside a checkpoint pause",
		s.ctrl.Committed(s.r.ID()), share*100)
	if share < 0.03 {
		note = "unresolved: " + note + " (want >= 3%)"
	}
	return []string{note}
}

// pauseShare reports the share of latency-phase tuples due inside a
// checkpoint pause (a node's ckpt.begin to its ckpt.seal).
func pauseShare(s *regionSUT, c *collector) float64 {
	type key struct {
		node string
		v    uint64
	}
	begin := make(map[key]int64)
	var ivs [][2]int64
	for _, e := range s.r.Obs().Journal.Events() {
		switch e.Kind {
		case "ckpt.begin":
			begin[key{e.Node, e.Version}] = e.At
		case "ckpt.seal":
			if b, ok := begin[key{e.Node, e.Version}]; ok {
				ivs = append(ivs, [2]int64{s.toHarness(b), s.toHarness(e.At)})
			}
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latN == 0 {
		return 0
	}
	var inPause uint64
	j := 0
	for i := uint64(0); i < c.latN; i++ {
		due := c.dueOf(i)
		for j < len(ivs) && ivs[j][1] < due {
			j++
		}
		for k := j; k < len(ivs) && ivs[k][0] <= due; k++ {
			if due <= ivs[k][1] {
				inPause++
				break
			}
		}
	}
	return float64(inPause) / float64(c.latN)
}
