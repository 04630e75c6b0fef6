package deploy_test

import (
	"testing"
	"time"

	"mobistreams/internal/controller"
	"mobistreams/internal/deploy"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
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
