package bench

import (
	"io"
	"reflect"
	"testing"
)

// fedSweep runs the {smallest, largest} sweep the assertions need; the
// full 5-point sweep is CI's job.
func fedSweep(t *testing.T, seed int64) []FederationPoint {
	t.Helper()
	rows, err := federationComparison(seed, []int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows (2 modes x 2 counts), got %d", len(rows))
	}
	return rows
}

func fedRow(t *testing.T, rows []FederationPoint, mode string, regions int) FederationPoint {
	t.Helper()
	for _, p := range rows {
		if p.Mode == mode && p.Regions == regions {
			return p
		}
	}
	t.Fatalf("no %s row at %d regions", mode, regions)
	return FederationPoint{}
}

// TestFederationFanoutScaling is the experiment's headline: growing the
// fleet 16x leaves the gossip overlay's busiest node within 2x of its
// small-fleet control egress, while the unicast hub's grows at least 8x.
func TestFederationFanoutScaling(t *testing.T) {
	rows := fedSweep(t, 7)
	g4 := fedRow(t, rows, "gossip", 4)
	g64 := fedRow(t, rows, "gossip", 64)
	u4 := fedRow(t, rows, "unicast", 4)
	u64 := fedRow(t, rows, "unicast", 64)

	for _, p := range []FederationPoint{g4, g64, u4, u64} {
		if p.MaxCtrlBytes <= 0 || p.CtrlBytesPerPhone <= 0 {
			t.Fatalf("%s/%d: no control bytes measured: %+v", p.Mode, p.Regions, p)
		}
	}
	if ratio := g64.CtrlBytesPerPhone / g4.CtrlBytesPerPhone; ratio > 2.0 {
		t.Errorf("gossip busiest-node ctrl bytes/phone grew %.2fx from 4 to 64 regions (want <= 2x): %.1f -> %.1f",
			ratio, g4.CtrlBytesPerPhone, g64.CtrlBytesPerPhone)
	}
	if ratio := u64.CtrlBytesPerPhone / u4.CtrlBytesPerPhone; ratio < 8.0 {
		t.Errorf("unicast hub ctrl bytes/phone grew only %.2fx from 4 to 64 regions (want >= 8x): %.1f -> %.1f",
			ratio, u4.CtrlBytesPerPhone, u64.CtrlBytesPerPhone)
	}
	// At the city scale the gossip overlay must also beat the hub
	// outright, not just scale better.
	if g64.CtrlBytesPerPhone >= u64.CtrlBytesPerPhone {
		t.Errorf("at 64 regions gossip (%.1f B/phone) should beat unicast (%.1f B/phone)",
			g64.CtrlBytesPerPhone, u64.CtrlBytesPerPhone)
	}
}

// TestFederationExactlyOnce pins the cross-region stream semantics: every
// envelope arrives, every injected retry is dropped at the dedup line,
// and the consumer-side operator never sees a sequence twice.
func TestFederationExactlyOnce(t *testing.T) {
	rows := fedSweep(t, 7)
	for _, p := range rows {
		if p.Mode != "gossip" {
			continue
		}
		if p.XRegionSent == 0 {
			t.Fatalf("%d regions: no cross-region tuples sent", p.Regions)
		}
		if p.XRegionDelivered != p.XRegionSent {
			t.Errorf("%d regions: delivered %d of %d cross-region tuples",
				p.Regions, p.XRegionDelivered, p.XRegionSent)
		}
		if p.XRegionDupsDropped != p.XRegionRetries {
			t.Errorf("%d regions: dropped %d dups, injected %d retries",
				p.Regions, p.XRegionDupsDropped, p.XRegionRetries)
		}
		if p.XRegionDupOutputs != 0 {
			t.Errorf("%d regions: %d duplicate outputs reached the consumer",
				p.Regions, p.XRegionDupOutputs)
		}
		if p.AggOutputs != int(p.XRegionSent) {
			t.Errorf("%d regions: agg stage emitted %d outputs for %d inputs",
				p.Regions, p.AggOutputs, p.XRegionSent)
		}
	}
}

// TestFederationDeterminism: same seed, same sweep — byte counts and
// round counts included.
func TestFederationDeterminism(t *testing.T) {
	a := fedSweep(t, 11)
	b := fedSweep(t, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}

func TestFederationReportJSON(t *testing.T) {
	rows := fedSweep(t, 7)
	got, _ := roundTrip(t, "federation", rows)
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("round-trip lost data:\n got=%+v\nwant=%+v", got, rows)
	}
	writeFederationTable(io.Discard, rows)
}
