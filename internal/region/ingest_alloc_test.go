package region_test

import (
	"testing"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// TestIngestZeroAllocs pins the admission path: Region.Ingest builds the
// tuple on its stack and the source node copies it into its ingest slab, so
// ingesting a pre-boxed value allocates nothing per tuple. The source's
// executor is paused so that only the admission itself is measured.
func TestIngestZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var b graph.Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").Connect("A", "B")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := region.New(region.Config{
		ID:    "ingest",
		Graph: g,
		Registry: operator.Registry{
			"A": func() operator.Operator { return operator.NewPassthrough("A") },
			"B": func() operator.Operator { return operator.NewPassthrough("B") },
		},
		Scheme: ft.BaseScheme,
		Phones: 2,
		Clock:  clock.NewScaled(1000),
		WiFi:   simnet.WiFiConfig{BitsPerSecond: 100e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	pid, ok := r.Placement(g.SlotOf("A"))
	if !ok {
		t.Fatal("source slot unplaced")
	}
	src := r.Node(pid)
	src.PauseExec()
	defer src.ResumeExec()

	var value interface{} = 21.5
	r.Ingest("A", value, 64, "reading")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Ingest("A", value, 64, "reading")
	})
	if allocs != 0 {
		t.Fatalf("Region.Ingest allocates %.1f objects per tuple, want 0", allocs)
	}
}
