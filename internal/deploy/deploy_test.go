package deploy_test

import (
	"sync"
	"testing"
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// TestAddRegionDerivesWiring runs one region per scheme and checks the two
// fields AddRegion derives by what the region does with them: its source
// broadcasts preserved runs exactly when the scheme preserves at sources,
// and its nodes' failure reports reach the controller (pings are a day
// apart, so nothing else can tell the controller of the crash).
func TestAddRegionDerivesWiring(t *testing.T) {
	var b graph.Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").Connect("A", "B")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := operator.Registry{
		"A": func() operator.Operator { return operator.NewPassthrough("A") },
		"B": func() operator.Operator { return operator.NewPassthrough("B") },
	}
	for _, scheme := range []ft.Scheme{ft.BaseScheme, ft.Rep2Scheme, ft.LocalScheme, ft.Dist(2), ft.MSScheme} {
		t.Run(scheme.String(), func(t *testing.T) {
			d := deploy.New(1000, simnet.CellularConfig{}, controller.Config{CheckpointPeriod: 24 * time.Hour, PingInterval: 24 * time.Hour})
			r, err := d.AddRegion(region.Config{
				ID: "r", Graph: g, Registry: reg, Scheme: scheme, Phones: 4,
				WiFi: simnet.WiFiConfig{BitsPerSecond: 100e6},
			})
			if err != nil {
				t.Fatal(err)
			}
			d.Start()
			defer d.Stop()
			waitFor := func(what string, done func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting for %s", what)
					}
				}
			}

			for i := 0; i < 5; i++ {
				r.Ingest("A", i, 64, "t")
			}
			waitFor("5 outputs", func() bool { return r.Outputs() >= 5 })
			preserved := r.WiFi().Counters.Bytes(simnet.ClassPreserve) > 0
			if preserved != scheme.PreservesAtSources() {
				t.Fatalf("source runs broadcast = %v, want %v", preserved, scheme.PreservesAtSources())
			}

			sink, ok := r.Placement("n2")
			if !ok {
				t.Fatal("sink slot unplaced")
			}
			r.FailPhone(sink)
			r.Ingest("A", 5, 64, "t")
			waitFor("the controller to act on the failure report", func() bool { return d.Ctrl.Recoveries("r") > 0 })
		})
	}
}

// stalling passes tuples on, but the first tuple whose value is "stall"
// that any instance sees closes busy and holds that instance's executor
// for 100 ms of wall time.
type stalling struct {
	operator.Base
	once *sync.Once
	busy chan struct{}
}

func (s *stalling) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	if t.Value == "stall" {
		s.once.Do(func() {
			close(s.busy)
			time.Sleep(100 * time.Millisecond)
		})
	}
	ctx.Emit(t)
	return nil
}

// Stop stops the controller before the regions. A region's Stop waits for
// an operator call in progress, here 10 s simulated; a controller still
// running meanwhile would ping the stopping phones, note them failed and
// plan a recovery against a region that is gone.
func TestStopPlansNoRecovery(t *testing.T) {
	var b graph.Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").Connect("A", "B")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := deploy.New(100, simnet.CellularConfig{}, controller.Config{
		CheckpointPeriod: 24 * time.Hour,
		PingInterval:     time.Second,
		PingTimeout:      2 * time.Second,
		DebounceWindow:   time.Millisecond,
	})
	var once sync.Once
	busy := make(chan struct{})
	r, err := d.AddRegion(region.Config{
		ID: "r", Graph: g, Scheme: ft.MSScheme, Phones: 4,
		Registry: operator.Registry{
			"A": func() operator.Operator { return operator.NewPassthrough("A") },
			"B": func() operator.Operator { return &stalling{Base: operator.Base{Name: "B"}, once: &once, busy: busy} },
		},
		WiFi: simnet.WiFiConfig{BitsPerSecond: 100e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	proposals := func() int {
		n := 0
		for _, e := range r.Obs().Journal.Events() {
			if e.Kind == "plan.propose" {
				n++
			}
		}
		return n
	}
	d.Start()
	// A few ping rounds, every one answered.
	for start := d.Clock.Now(); d.Clock.Now()-start < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}
	r.Ingest("A", "stall", 64, "t")
	<-busy
	recoveries, proposed := d.Ctrl.Recoveries("r"), proposals()
	d.Stop()
	if n := d.Ctrl.Recoveries("r"); n != recoveries {
		t.Fatalf("recoveries went from %d to %d across Stop", recoveries, n)
	}
	if n := proposals(); n != proposed {
		t.Fatalf("%d plans proposed during Stop", n-proposed)
	}
}
