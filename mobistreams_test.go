package mobistreams

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobistreams/internal/operator"
	"mobistreams/stream"
)

// demoPipeline is src -> work -> out on three slots; onOut (may be nil)
// receives each published result.
func demoPipeline(t testing.TB, onOut func(int)) *stream.Pipeline {
	t.Helper()
	p, err := stream.From[int]("src", stream.On("n1")).
		Map("work", func(v int) int { return v }, stream.On("n2")).
		Sink("out", onOut, stream.On("n3")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSystemEndToEnd(t *testing.T) {
	var got atomic.Int64
	sys := NewSystem(SystemConfig{Speedup: 2000, CheckpointPeriod: time.Hour})
	r, err := sys.AddRegion(RegionSpec{
		ID: "r1", Pipeline: demoPipeline(t, func(int) { got.Add(1) }), Scheme: MS, Phones: 5,
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
	r, err := sys.AddRegion(RegionSpec{ID: "r1", Pipeline: demoPipeline(t, nil), Scheme: MS, Phones: 5})
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
		ID: "r2", Pipeline: demoPipeline(t, func(int) { downstream.Add(1) }), Scheme: Base, Phones: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sys.AddRegion(RegionSpec{ID: "r1", Pipeline: demoPipeline(t, nil), Scheme: Base, Phones: 3})
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
		t.Fatal("region without pipeline accepted")
	}
}

// The controller launches its per-region loops once, at Start: a region
// added later would never be pinged or checkpointed, so AddRegion refuses it.
func TestAddRegionAfterStartFails(t *testing.T) {
	sys := NewSystem(SystemConfig{Speedup: 100})
	sys.Start()
	defer sys.Stop()
	_, err := sys.AddRegion(RegionSpec{ID: "late", Pipeline: demoPipeline(t, nil), Scheme: MS, Phones: 5})
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
		ID: "r1", Pipeline: demoPipeline(t, func(int) { got.Add(1) }), Scheme: MS, Phones: 5,
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
	r, err := sys.AddRegion(RegionSpec{ID: "r1", Pipeline: p, Scheme: MS, Phones: 6})
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

// A Pipeline that did not come from stream's Build carries no graph and no
// registry: AddRegion reports it as an error, not a placement-time panic.
func TestAddRegionRejectsIncompleteRegistry(t *testing.T) {
	sys := NewSystem(SystemConfig{Speedup: 100})
	if _, err := sys.AddRegion(RegionSpec{
		ID: "r1", Pipeline: &stream.Pipeline{}, Scheme: Base, Phones: 3,
	}); err == nil {
		t.Fatal("pipeline without graph or registry accepted")
	}
}

// smoother is a custom stateful operator: the end-to-end proof that an
// application's own operator checkpoints and recovers through the public
// API.
type smoother struct {
	operator.Base
	ewma float64
	n    uint64
}

func (s *smoother) Process(ctx *OperatorContext, _ string, t *Tuple) error {
	v, _ := t.Value.(float64)
	if s.n == 0 {
		s.ewma = v
	} else {
		s.ewma = 0.8*s.ewma + 0.2*v
	}
	s.n++
	out := ctx.Clone(t)
	out.Value = s.ewma
	ctx.Emit(out)
	return nil
}

func (s *smoother) Snapshot() ([]byte, error) {
	return []byte(fmt.Sprintf("%g %d", s.ewma, s.n)), nil
}

func (s *smoother) Restore(data []byte) error {
	_, err := fmt.Sscanf(string(data), "%g %d", &s.ewma, &s.n)
	return err
}

func (s *smoother) StateSize() int { return 16 }

func TestCustomOperatorSurvivesCheckpointAndFailure(t *testing.T) {
	var got atomic.Int64
	p, err := stream.From[float64]("src", stream.On("n1")).
		Via("smooth", func() Operator { return &smoother{Base: operator.Base{Name: "smooth"}} }, stream.On("n2")).
		Sink("out", func(float64) { got.Add(1) }, stream.On("n3")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(SystemConfig{Speedup: 2000, CheckpointPeriod: time.Hour})
	r, err := sys.AddRegion(RegionSpec{ID: "r1", Pipeline: p, Scheme: MS, Phones: 5})
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
		t.Fatal("custom-operator checkpoint never committed")
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
		t.Fatal("no recovery with a custom operator placed")
	}
	if r.Dead() {
		t.Fatal("region died")
	}
	if got.Load() == 0 {
		t.Fatal("no result published")
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
	r, err := sys.AddRegion(RegionSpec{ID: "r1", Pipeline: p, Scheme: Base, Phones: 3})
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
