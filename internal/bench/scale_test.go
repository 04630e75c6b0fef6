package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mobistreams/internal/simnet"
)

// TestScaleGraphShape pins the aggregation-tree sizing: the tree fills the
// phone budget without exceeding it, every leaf feeds exactly one
// aggregator, and every aggregator feeds the sink.
func TestScaleGraphShape(t *testing.T) {
	for _, phones := range []int{8, 16, 32, 64, 128} {
		g, reg, srcOps, err := scaleGraph(phones)
		if err != nil {
			t.Fatalf("%d phones: %v", phones, err)
		}
		slots := len(g.Slots())
		if slots > phones {
			t.Fatalf("%d phones: tree needs %d slots", phones, slots)
		}
		if slots < phones-2 {
			t.Fatalf("%d phones: tree uses only %d slots, wasting idles", phones, slots)
		}
		leaves := scaleLeaves(phones)
		if len(srcOps) != leaves {
			t.Fatalf("%d phones: %d source ops, want %d", phones, len(srcOps), leaves)
		}
		if len(reg) != slots {
			t.Fatalf("%d phones: registry has %d ops, want one per slot", phones, len(reg))
		}
		for _, src := range srcOps {
			if ds := g.Downstream(src); len(ds) != 1 || ds[0][0] != 'A' {
				t.Fatalf("%d phones: leaf %s feeds %v", phones, src, ds)
			}
		}
	}
}

// TestScaleChannelPlan pins the AP association: a fan-in neighbourhood
// (aggregator + its leaves) shares one cell, and the sink holds the last
// channel alone.
func TestScaleChannelPlan(t *testing.T) {
	g, _, _, err := scaleGraph(64)
	if err != nil {
		t.Fatal(err)
	}
	const channels = 4
	plan := scaleChannelPlan("scale", g, channels)
	slots := g.Slots()
	chOf := make(map[string]int, len(slots))
	for i, slot := range slots {
		chOf[slot] = plan(simnet.NodeID(fmt.Sprintf("scale/p%d", i+1)))
	}
	for slot, ch := range chOf {
		if ch < 0 || ch >= channels {
			t.Fatalf("slot %s assigned channel %d", slot, ch)
		}
		if slot == "k0" {
			if ch != channels-1 {
				t.Fatalf("sink on channel %d, want %d", ch, channels-1)
			}
			continue
		}
		if ch == channels-1 {
			t.Fatalf("slot %s shares the sink's channel", slot)
		}
	}
	// Leaves share their aggregator's cell: w1..w8 with a1, w9..w16 with
	// a2, and so on.
	for i := 1; i <= 16; i++ {
		agg := fmt.Sprintf("a%d", (i-1)/scaleFanIn+1)
		leaf := fmt.Sprintf("w%d", i)
		if chOf[leaf] != chOf[agg] {
			t.Fatalf("leaf %s on channel %d, its aggregator %s on %d", leaf, chOf[leaf], agg, chOf[agg])
		}
	}
	if scaleChannelPlan("scale", g, 1) != nil {
		t.Fatal("single-channel plan should be nil (round-robin is fine)")
	}
}

// TestScaleRunDelivers runs the smallest sweep cell end to end: an
// unsaturated tree must deliver.
func TestScaleRunDelivers(t *testing.T) {
	row, err := runScale(3, 8, 4, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if row.Delivered == 0 {
		t.Fatalf("row = %+v, want deliveries", row)
	}
}

func TestScaleJSONRoundTrips(t *testing.T) {
	got, raw := roundTrip(t, "scale", []ScaleRow{
		{Phones: 64, Leaves: 56, Channels: 1, Delivered: 1000, TPS: 50},
		{Phones: 64, Leaves: 56, Channels: 4, Delivered: 7000, TPS: 350},
	})
	if len(got) != 2 || got[1].TPS != 350 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if !strings.Contains(raw, `"tuples_per_sec"`) {
		t.Fatal("results missing tuples_per_sec field")
	}
}
