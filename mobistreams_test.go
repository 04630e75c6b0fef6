package mobistreams

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/stream"
)

func demoGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := NewGraphBuilder().
		AddOperator("src", "n1").AddOperator("work", "n2").AddOperator("out", "n3").
		Chain("src", "work", "out").Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func demoRegistry() Registry {
	return Registry{
		"src": func() Operator { return operator.NewPassthrough("src") },
		"work": func() Operator {
			return operator.NewMap("work", func(ctx *operator.Context, in *tuple.Tuple) *tuple.Tuple { return ctx.Clone(in) })
		},
		"out": func() Operator { return operator.NewPassthrough("out") },
	}
}

func TestSystemEndToEnd(t *testing.T) {
	var got atomic.Int64
	sys := NewSystem(SystemConfig{Speedup: 2000, CheckpointPeriod: time.Hour})
	r, err := sys.AddRegion(RegionSpec{
		ID: "r1", Graph: demoGraph(t), Registry: demoRegistry(),
		Scheme: MS, Phones: 5, WiFiBps: 50e6,
		OnOutput: func(*Tuple) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	for i := 0; i < 10; i++ {
		r.Ingest("src", i, 1024, "x")
	}
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got.Load() != 10 {
		t.Fatalf("outputs = %d, want 10", got.Load())
	}
	if r.Outputs() != 10 {
		t.Fatalf("region outputs = %d", r.Outputs())
	}
	if r.Dead() {
		t.Fatal("region dead")
	}
}

func TestSystemCheckpointAndFailure(t *testing.T) {
	sys := NewSystem(SystemConfig{Speedup: 2000, CheckpointPeriod: time.Hour})
	r, err := sys.AddRegion(RegionSpec{
		ID: "r1", Graph: demoGraph(t), Registry: demoRegistry(),
		Scheme: MS, Phones: 5, WiFiBps: 50e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	for i := 0; i < 5; i++ {
		r.Ingest("src", i, 1024, "x")
	}
	v := r.TriggerCheckpoint()
	deadline := time.Now().Add(10 * time.Second)
	for r.Committed() < v && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.Committed() < v {
		t.Fatal("checkpoint never committed")
	}
	if err := r.InjectFailure("n2"); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 15; i++ {
		r.Ingest("src", i, 1024, "x")
	}
	deadline = time.Now().Add(15 * time.Second)
	for r.Recoveries() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.Recoveries() == 0 {
		t.Fatal("no recovery")
	}
	if r.Dead() {
		t.Fatal("region should survive a single failure")
	}
}

func TestSystemCascade(t *testing.T) {
	var downstream atomic.Int64
	sys := NewSystem(SystemConfig{
		Speedup:          2000,
		CheckpointPeriod: time.Hour,
	})
	r2, err := sys.AddRegion(RegionSpec{
		ID: "r2", Graph: demoGraph(t), Registry: demoRegistry(),
		Scheme: Base, Phones: 3, WiFiBps: 50e6,
		OnOutput: func(*Tuple) { downstream.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sys.AddRegion(RegionSpec{
		ID: "r1", Graph: demoGraph(t), Registry: demoRegistry(),
		Scheme: Base, Phones: 3, WiFiBps: 50e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Connect(r1, r2, "src")
	sys.Start()
	defer sys.Stop()
	for i := 0; i < 5; i++ {
		r1.Ingest("src", i, 1024, "x")
	}
	deadline := time.Now().Add(15 * time.Second)
	for downstream.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if downstream.Load() != 5 {
		t.Fatalf("cascaded outputs = %d, want 5", downstream.Load())
	}
}

func TestParseSchemeFacade(t *testing.T) {
	s, err := ParseScheme("dist-2")
	if err != nil || s != Dist(2) {
		t.Fatalf("parse: %v %v", s, err)
	}
	if _, err := ParseScheme("junk"); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestAddRegionValidation(t *testing.T) {
	sys := NewSystem(SystemConfig{Speedup: 100})
	if _, err := sys.AddRegion(RegionSpec{ID: "bad"}); err == nil {
		t.Fatal("region without graph accepted")
	}
}

// The controller launches its per-region loops once, at Start: a region
// added later would never be pinged or checkpointed, so AddRegion refuses it.
func TestAddRegionAfterStartFails(t *testing.T) {
	sys := NewSystem(SystemConfig{Speedup: 100})
	sys.Start()
	defer sys.Stop()
	_, err := sys.AddRegion(RegionSpec{ID: "late", Graph: demoGraph(t), Registry: demoRegistry(), Scheme: MS, Phones: 5})
	if err == nil {
		t.Fatal("region added after Start accepted")
	}
}

func TestSystemAdaptivePlacement(t *testing.T) {
	var got atomic.Int64
	sys := NewSystem(SystemConfig{
		Speedup:           2000,
		CheckpointPeriod:  time.Hour,
		AdaptivePlacement: true,
	})
	r, err := sys.AddRegion(RegionSpec{
		ID: "r1", Graph: demoGraph(t), Registry: demoRegistry(),
		Scheme: MS, Phones: 5, WiFiBps: 50e6,
		OnOutput: func(*Tuple) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	for i := 0; i < 20; i++ {
		r.Ingest("src", i, 1024, "test")
	}
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got.Load() != 20 {
		t.Fatalf("outputs = %d, want 20", got.Load())
	}
	if r.Migrations() != 0 {
		t.Fatalf("healthy region migrated %d slots", r.Migrations())
	}
}

// With AdaptivePlacement on, the region's controller splits a keyed group
// that declares WithMaxParallelism headroom once a hot key backs its one
// active instance up: no caller drives the split.
func TestSystemAdaptivePlacementSplitsHotGroup(t *testing.T) {
	p, err := stream.From[string]("src").
		KeyBy("kb", func(v string) string { return v }).
		Via("tally", func() Operator {
			kt := operator.NewKeyedTally("tally")
			kt.CostFn = operator.FixedCost(20 * time.Millisecond)
			return kt
		}, stream.WithMaxParallelism(2)).
		Sink("out", nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(SystemConfig{Speedup: 100, CheckpointPeriod: time.Hour, AdaptivePlacement: true})
	spec := PipelineSpec("r1", p, MS, 6)
	spec.WiFiBps = 50e6
	r, err := sys.AddRegion(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	// 200 tuples, three in four on the hot key, queue 4 s of work at the
	// lone active instance.
	for i := 0; i < 200; i++ {
		key := "hot"
		if i%4 == 0 {
			key = fmt.Sprintf("k%d", i%16)
		}
		r.Ingest("src", key, 64, key)
	}
	var planned, split bool
	for deadline := time.Now().Add(10 * time.Second); !(planned && split) && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, e := range r.r.Obs().Journal.Events() {
			planned = planned || e.Kind == "plan.step" && strings.Contains(e.Detail, "ok=true split tally 0->1")
			split = split || e.Kind == "keyed.split"
		}
	}
	if !planned || !split {
		t.Fatalf("split plan step journaled: %v, keyed.split journaled: %v; want both", planned, split)
	}
}

// The WiFiLoss zero value means "default 2%"; a loss outside [0,1) is a
// configuration error.
func TestRegionSpecWiFiLossResolution(t *testing.T) {
	cases := []struct {
		spec RegionSpec
		want float64
		err  bool
	}{
		{RegionSpec{ID: "a"}, 0.02, false},
		{RegionSpec{ID: "b", WiFiLoss: 0.1}, 0.1, false},
		{RegionSpec{ID: "e", WiFiLoss: -0.5}, 0, true},
		{RegionSpec{ID: "f", WiFiLoss: 1.5}, 0, true},
	}
	for _, c := range cases {
		got, err := c.spec.wifiLoss()
		if c.err != (err != nil) {
			t.Fatalf("%s: err = %v, want err=%v", c.spec.ID, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("%s: loss = %g, want %g", c.spec.ID, got, c.want)
		}
	}
	sys := NewSystem(SystemConfig{Speedup: 100})
	if _, err := sys.AddRegion(RegionSpec{
		ID: "bad", Graph: demoGraph(t), Registry: demoRegistry(),
		Scheme: Base, Phones: 3, WiFiLoss: 1.5,
	}); err == nil {
		t.Fatal("out-of-range loss accepted")
	}
}

// Build-time registry validation: a graph operator without a factory is an
// AddRegion error now, not a placement-time panic.
func TestAddRegionRejectsIncompleteRegistry(t *testing.T) {
	sys := NewSystem(SystemConfig{Speedup: 100})
	reg := demoRegistry()
	delete(reg, "work")
	if _, err := sys.AddRegion(RegionSpec{
		ID: "r1", Graph: demoGraph(t), Registry: reg, Scheme: Base, Phones: 3,
	}); err == nil {
		t.Fatal("registry missing a factory accepted")
	}
}

// legacySmoother is a seed-contract custom operator: the end-to-end proof
// that applications written against the old API survive the emit-context
// redesign unchanged, including checkpoint and recovery.
type legacySmoother struct {
	operator.Base
	ewma float64
	n    uint64
}

func (s *legacySmoother) Process(_ string, t *tuple.Tuple) ([]operator.Out, error) {
	v, _ := t.Value.(float64)
	if s.n == 0 {
		s.ewma = v
	} else {
		s.ewma = 0.8*s.ewma + 0.2*v
	}
	s.n++
	c := *t // the legacy contract has no context to carve from
	out := &c
	out.Value = s.ewma
	return []operator.Out{operator.Emit(out)}, nil
}

func (s *legacySmoother) Snapshot() ([]byte, error) {
	return []byte(fmt.Sprintf("%g %d", s.ewma, s.n)), nil
}

func (s *legacySmoother) Restore(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%g %d", &s.ewma, &s.n)
	return err
}

func (s *legacySmoother) StateSize() int { return 16 }

func TestLegacyOperatorSurvivesCheckpointAndFailure(t *testing.T) {
	g, err := NewGraphBuilder().
		AddOperator("src", "n1").AddOperator("smooth", "n2").AddOperator("out", "n3").
		Chain("src", "smooth", "out").Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := Registry{
		"src":    func() Operator { return operator.NewPassthrough("src") },
		"smooth": func() Operator { return &legacySmoother{Base: operator.Base{Name: "smooth"}} },
		"out":    func() Operator { return operator.NewPassthrough("out") },
	}
	var got atomic.Int64
	sys := NewSystem(SystemConfig{Speedup: 2000, CheckpointPeriod: time.Hour})
	r, err := sys.AddRegion(RegionSpec{
		ID: "r1", Graph: g, Registry: reg, Scheme: MS, Phones: 5, WiFiBps: 50e6,
		OnOutput: func(*Tuple) { got.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	for i := 0; i < 5; i++ {
		r.Ingest("src", float64(20+i), 512, "reading")
	}
	v := r.TriggerCheckpoint()
	deadline := time.Now().Add(10 * time.Second)
	for r.Committed() < v && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.Committed() < v {
		t.Fatal("legacy-operator checkpoint never committed")
	}
	if err := r.InjectFailure("n2"); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 15; i++ {
		r.Ingest("src", float64(20+i), 512, "reading")
	}
	deadline = time.Now().Add(15 * time.Second)
	for r.Recoveries() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if r.Recoveries() == 0 {
		t.Fatal("no recovery with a legacy operator placed")
	}
	if r.Dead() {
		t.Fatal("region died")
	}
}

// TestTimeWindowClosesOnIdleStream proves the executor's timer machinery
// end to end: a TimeWindow built through the stream DSL closes its window
// on simulated time — via the timer wake, not a following tuple — and the
// sink publishes the per-window means while the stream is idle.
func TestTimeWindowClosesOnIdleStream(t *testing.T) {
	var mu sync.Mutex
	var got []float64
	p, err := stream.From[float64]("sensor", stream.On("n1")).
		TimeWindow("win", 10*time.Second, stream.On("n2")).
		Sink("out", func(v float64) { mu.Lock(); got = append(got, v); mu.Unlock() }, stream.On("n3")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(SystemConfig{Speedup: 500, CheckpointPeriod: time.Hour})
	r, err := sys.AddRegion(PipelineSpec("r1", p, Base, 3))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()
	// Burst all readings well inside the first 10 s window; the close can
	// only come from the timer.
	for i := 1; i <= 4; i++ {
		r.Ingest("sensor", float64(10*i), 256, "reading")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("time window never closed on the idle stream")
	}
	if got[0] != 25 { // mean of 10,20,30,40
		t.Fatalf("window mean = %v, want 25", got[0])
	}
}
