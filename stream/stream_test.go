package stream

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

func TestBuildCompilesGraphAndRegistry(t *testing.T) {
	var mu sync.Mutex
	var got []float64
	p, err := From[float64]("src", On("n1")).
		Map("double", func(v float64) float64 { return 2 * v }, On("n2")).
		Filter("pos", func(v float64) bool { return v > 0 }, On("n2")).
		Window("avg", 4, On("n3")).
		Sink("out", func(v float64) { mu.Lock(); got = append(got, v); mu.Unlock() }, On("n4")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	wantOps := []string{"src", "double", "pos", "avg", "out"}
	ops := g.Operators()
	if len(ops) != len(wantOps) {
		t.Fatalf("operators = %v", ops)
	}
	for i, id := range wantOps {
		if ops[i] != id {
			t.Fatalf("operators = %v, want %v", ops, wantOps)
		}
	}
	if g.SlotOf("double") != "n2" || g.SlotOf("pos") != "n2" {
		t.Fatal("On(slot) not honoured")
	}
	if down := g.Downstream("src"); len(down) != 1 || down[0] != "double" {
		t.Fatalf("edge order wrong: %v", down)
	}
	if sinks := g.Sinks(); len(sinks) != 1 || sinks[0] != "out" {
		t.Fatalf("sinks = %v", sinks)
	}
	if err := p.Registry().Validate(g.Operators()); err != nil {
		t.Fatalf("compiled registry invalid: %v", err)
	}
	// Typed sink dispatch.
	if !p.HasOutput() {
		t.Fatal("sink callback lost")
	}
	p.Output(&tuple.Tuple{Value: 3.5})
	p.Output(&tuple.Tuple{Value: "not a float"}) // ignored, wrong type
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != 3.5 {
		t.Fatalf("sink dispatch got %v", got)
	}
}

func TestDefaultSlotIsStageID(t *testing.T) {
	p, err := From[int]("a").Map("b", func(v int) int { return v }).Sink("c", nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if p.Graph().SlotOf(id) != id {
			t.Fatalf("default slot for %s = %s", id, p.Graph().SlotOf(id))
		}
	}
}

func TestBuildRejectsDuplicateID(t *testing.T) {
	_, err := From[int]("a").Map("a", func(v int) int { return v }).Sink("out", nil).Build()
	if err == nil || !strings.Contains(err.Error(), `duplicate stage ID "a"`) {
		t.Fatalf("duplicate ID not rejected: %v", err)
	}
}

func TestBuildRejectsUnknownRouteTarget(t *testing.T) {
	_, err := From[int]("a").Route("ghost").Sink("out", nil).Build()
	if err == nil || !strings.Contains(err.Error(), `unknown stage "ghost"`) {
		t.Fatalf("unknown edge target not rejected: %v", err)
	}
}

func TestBuildRejectsTypeMismatch(t *testing.T) {
	src := From[float64]("src")
	strs := Apply(src, "tostr", func(v float64) (string, bool) { return "s", true })
	strs.Map("strmap", func(v string) string { return v }).Sink("out", nil)
	// A float64 branch routed into the string consumer must fail at Build.
	w := src.Window("win", 4)
	w.Route("strmap")
	_, err := w.Build()
	if err == nil || !strings.Contains(err.Error(), "type mismatch on edge win->strmap") {
		t.Fatalf("type mismatch not rejected: %v", err)
	}
}

func TestBuildRejectsFactoryIDMismatch(t *testing.T) {
	_, err := From[int]("a").
		Via("b", func() operator.Operator { return operator.NewPassthrough("NOT-b") }).
		Sink("out", nil).Build()
	if err == nil || !strings.Contains(err.Error(), `built operator with ID "NOT-b"`) {
		t.Fatalf("factory ID mismatch not rejected: %v", err)
	}
}

func TestBuildRejectsCycleAndMissingSink(t *testing.T) {
	// Route back to the source: a cycle the graph layer reports.
	s := From[int]("a")
	b := s.Map("b", func(v int) int { return v })
	b.Route("a")
	_, err := b.Sink("out", nil).Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestMergeFanInAndFanOut(t *testing.T) {
	src := From[float64]("S", On("n1"))
	left := src.Map("L", func(v float64) float64 { return v + 1 }, On("n2"))
	right := src.Map("R", func(v float64) float64 { return v - 1 }, On("n3"))
	joined := Merge[float64]("J", func() operator.Operator {
		return operator.NewJoin("J", "L", "R", func(ctx *operator.Context, l, _ *tuple.Tuple) *tuple.Tuple { return ctx.Clone(l) })
	}, []Upstream{left, right}, On("n4"))
	p, err := joined.Sink("out", nil, On("n4")).Build()
	if err != nil {
		t.Fatal(err)
	}
	g := p.Graph()
	if ups := g.Upstream("J"); len(ups) != 2 || ups[0] != "L" || ups[1] != "R" {
		t.Fatalf("merge upstreams = %v", ups)
	}
	if down := g.Downstream("S"); len(down) != 2 {
		t.Fatalf("fan-out from shared handle = %v", down)
	}
}

func TestMergeRejectsMixedDataflows(t *testing.T) {
	a := From[int]("a")
	b := From[int]("b")
	m := Merge[int]("m", func() operator.Operator { return operator.NewPassthrough("m") },
		[]Upstream{a, b})
	_, err := m.Sink("out", nil).Build()
	if err == nil || !strings.Contains(err.Error(), "different dataflows") {
		t.Fatalf("mixed dataflows not rejected: %v", err)
	}
	if _, err := Merge[int]("n", nil, nil).Build(); err == nil {
		t.Fatal("empty merge accepted")
	}
}

func TestTimeWindowStageCompiles(t *testing.T) {
	p, err := From[float64]("src").
		TimeWindow("win", 5*time.Second, WithCost(time.Millisecond)).
		Sink("out", nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	op := p.Registry().New("win")
	if _, ok := op.(*operator.TimeWindow); !ok {
		t.Fatalf("win compiled to %T", op)
	}
	if op.Cost(&tuple.Tuple{}) != time.Millisecond {
		t.Fatal("WithCost not applied")
	}
}

func TestErrorsAreAggregated(t *testing.T) {
	s := From[int]("a")
	s.Map("a", func(v int) int { return v }) // duplicate
	s.Route("ghost")                         // unknown
	_, err := s.Sink("out", nil).Build()
	if err == nil {
		t.Fatal("no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "duplicate stage ID") || !strings.Contains(msg, `unknown stage "ghost"`) {
		t.Fatalf("errors not aggregated: %v", msg)
	}
}

// Regression: Pipeline.Output dispatches by payload type, so two
// callback-bearing sinks sharing a type (or an `any` sink next to any
// other) would silently misroute every output to the first match — Build
// must reject the ambiguity instead.
func TestBuildRejectsAmbiguousSinkTypes(t *testing.T) {
	src := From[float64]("src")
	a := src.Map("a", func(v float64) float64 { return v })
	b := src.Map("b", func(v float64) float64 { return v })
	a.Sink("outA", func(float64) {})
	_, err := b.Sink("outB", func(float64) {}).Build()
	if err == nil || !strings.Contains(err.Error(), "misroute") {
		t.Fatalf("same-type sinks not rejected: %v", err)
	}

	// Distinct payload types stay legal.
	src2 := From[float64]("src")
	f := src2.Map("f", func(v float64) float64 { return v })
	s := Apply(src2, "s", func(v float64) (string, bool) { return "x", true })
	f.Sink("outF", func(float64) {})
	if _, err := s.Sink("outS", func(string) {}).Build(); err != nil {
		t.Fatalf("distinct-type sinks rejected: %v", err)
	}

	// An `any` sink is ambiguous with every other callback sink.
	src3 := From[float64]("src")
	g := src3.Map("g", func(v float64) float64 { return v })
	h := Apply(src3, "h", func(v float64) (any, bool) { return v, true })
	g.Sink("outG", func(float64) {})
	if _, err := h.Sink("outH", func(any) {}).Build(); err == nil {
		t.Fatal("any-sink ambiguity not rejected")
	}

	// A nil-callback sink still publishes: paired with a same-type
	// callback sink, its outputs would land in that callback — rejected.
	src4 := From[float64]("src")
	i := src4.Map("i", func(v float64) float64 { return v })
	j := src4.Map("j", func(v float64) float64 { return v })
	i.Sink("outI", nil)
	if _, err := j.Sink("outJ", func(float64) {}).Build(); err == nil {
		t.Fatal("nil-callback sink next to a same-type callback sink accepted")
	}

	// Two callback-less sinks cannot misroute: legal.
	src5 := From[float64]("src")
	k := src5.Map("k", func(v float64) float64 { return v })
	l := src5.Map("l", func(v float64) float64 { return v })
	k.Sink("outK", nil)
	if _, err := l.Sink("outL", nil).Build(); err != nil {
		t.Fatalf("two callback-less sinks rejected: %v", err)
	}

	// Interface/implementer overlap is caught even with distinct names.
	src6 := From[error]("src")
	m := src6.Map("m", func(v error) error { return v })
	n := Apply(src6, "n", func(v error) (any, bool) { return v, true })
	m.Sink("outM", func(error) {})
	if _, err := n.Sink("outN", func(any) {}).Build(); err == nil {
		t.Fatal("interface-overlap sinks accepted")
	}
}

// Regression: a stage left terminal without being declared a Sink becomes
// a graph sink, and its publications would reach the registered typed
// callbacks — Build must reject it whenever callbacks exist.
func TestBuildRejectsTerminalNonSinkNextToCallbacks(t *testing.T) {
	src := From[float64]("src")
	src.Sink("out", func(float64) {})
	src.Map("dangling", func(v float64) float64 { return v })
	_, err := src.Build()
	if err == nil || !strings.Contains(err.Error(), `terminal stage "dangling"`) {
		t.Fatalf("dangling terminal stage not rejected: %v", err)
	}

	// Without callbacks a terminal non-Sink stage (e.g. a Merge join) is
	// fine — nothing can misroute.
	a := From[float64]("a")
	a.Sink("outA", nil)
	a.Map("tail", func(v float64) float64 { return v })
	if _, err := a.Build(); err != nil {
		t.Fatalf("terminal stage without callbacks rejected: %v", err)
	}
}

// Regression: edge validation must accept a concrete payload feeding a
// stage declared over an interface it implements — the same cases the
// runtime type assertion accepts — while still rejecting real mismatches.
func TestBuildAcceptsInterfaceSatisfyingEdge(t *testing.T) {
	src := From[*strings.Reader]("src")
	b := Apply(src, "toiface", func(v *strings.Reader) (io.Reader, bool) { return v, true })
	c := b.Map("use", func(v io.Reader) io.Reader { return v })
	c.Sink("out", nil)
	// Route the concrete branch straight into the interface consumer:
	// *strings.Reader implements io.Reader, so this edge is valid.
	src.Route("use")
	if _, err := src.Build(); err != nil {
		t.Fatalf("interface-satisfying edge rejected: %v", err)
	}

	// A genuinely incompatible payload is still a build error.
	f := From[float64]("f")
	g := f.Map("fwd", func(v float64) float64 { return v })
	h := Apply(f, "toiface", func(v float64) (io.Reader, bool) { return nil, false })
	i := h.Map("use", func(v io.Reader) io.Reader { return v })
	i.Sink("out", nil)
	g.Route("use")
	if _, err := f.Build(); err == nil || !strings.Contains(err.Error(), "type mismatch on edge fwd->use") {
		t.Fatalf("incompatible edge not rejected: %v", err)
	}
}

// Regression: a Sink that gained downstream consumers is not terminal and
// never publishes, so its callback would silently never fire — Build must
// reject it.
func TestBuildRejectsMidPipelineSink(t *testing.T) {
	src := From[float64]("src")
	tap := src.Sink("tap", func(float64) {})
	end := Apply(tap, "tostr", func(v float64) (string, bool) { return "x", true })
	end.Sink("end", func(string) {})
	_, err := tap.Build()
	if err == nil || !strings.Contains(err.Error(), `sink "tap" has downstream stages`) {
		t.Fatalf("mid-pipeline sink not rejected: %v", err)
	}
}

// lastRuntime keeps only the latest emission, so driving an operator
// through it allocates nothing of its own.
type lastRuntime struct{ last *tuple.Tuple }

func (r *lastRuntime) Emit(t *tuple.Tuple)                  { r.last = t }
func (r *lastRuntime) EmitTo(_ string, t *tuple.Tuple) bool { r.last = t; return true }
func (*lastRuntime) Now() time.Duration                     { return 0 }
func (*lastRuntime) SetTimer(time.Duration) bool            { return false }

// A typed Map stage carves its results' boxes, like its output tuples, from
// arrays its instance owns: amortised, a tuple costs a fraction of an
// allocation, not the one box per result a plain conversion makes.
func TestMapStageAllocsAmortised(t *testing.T) {
	p, err := From[uint64]("src").
		Map("m", func(v uint64) uint64 { return v*3 + 1<<20 }).
		Sink("out", nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	proc := operator.Proc(p.Registry()["m"]())
	rt := &lastRuntime{}
	ctx := operator.NewContext(rt)
	in := &tuple.Tuple{Seq: 1, Kind: "k", Size: 8, Value: uint64(1 << 30)}
	const n = 3300
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			if err := proc(ctx, "src", in); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got, ok := rt.last.Value.(uint64); !ok || got != 3<<30+1<<20 {
		t.Fatalf("last result = %v, want %d", rt.last.Value, uint64(3<<30+1<<20))
	}
	if per := allocs / n; per > 0.1 {
		t.Fatalf("Map stage allocated %.3f per tuple over %d tuples, want <= 0.1", per, n)
	}
}
