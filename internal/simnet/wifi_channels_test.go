package simnet

import (
	"testing"
	"time"
)

// legacyEff replicates the classic single-medium airtime charge for one
// reliable unicast: (size + framing) / (1 - loss), truncated to int bytes.
func legacyEff(cfg WiFiConfig, size int) int {
	eff := size + cfg.FrameOverhead
	if cfg.LossProb > 0 && cfg.LossProb < 1 {
		eff = int(float64(eff) / (1 - cfg.LossProb))
	}
	return eff
}

func airtimeOf(cfg WiFiConfig, bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / cfg.BitsPerSecond * float64(time.Second))
}

// TestWiFiSingleChannelMatchesLegacy pins the refactored medium to the
// classic charge model: with channel count 1 (explicit or defaulted), a
// deterministic sequence of unicasts and broadcasts must charge exactly the
// legacy effective bytes — framing overhead, loss inflation, chunk-split
// bulk sends and broadcast bursts — byte for byte.
func TestWiFiSingleChannelMatchesLegacy(t *testing.T) {
	base := WiFiConfig{
		BitsPerSecond: 8e6,
		LossProb:      0.02,
		FrameOverhead: 600,
	}
	for _, channels := range []int{0, 1} {
		cfg := base
		cfg.Channels = channels
		clk := testClock()
		w := NewWiFi(clk, cfg)
		for _, id := range []NodeID{"a", "b", "c"} {
			w.Join(NewEndpoint(id, 1<<10))
		}
		if w.Channels() != 1 {
			t.Fatalf("Channels=%d built %d channels, want 1", channels, w.Channels())
		}

		var want time.Duration
		// Small unicast, cross- and same-channel is irrelevant at N=1.
		if err := w.Unicast("a", "b", ClassData, 1000, nil); err != nil {
			t.Fatal(err)
		}
		want += airtimeOf(cfg, legacyEff(cfg, 1000))
		// Bulk unicast above chunkBytes: split into chunks, total charge
		// unchanged.
		if err := w.Unicast("b", "c", ClassCheckpoint, 200<<10, nil); err != nil {
			t.Fatal(err)
		}
		want += airtimeOf(cfg, legacyEff(cfg, 200<<10))
		// Broadcast burst: per-datagram size + framing, no loss inflation
		// (UDP is best-effort; receivers sample loss instead).
		grams := []Datagram{{Size: 700}, {Size: 1200}, {Size: 300}}
		w.BroadcastBatch("c", ClassPreserve, grams)
		for _, g := range grams {
			want += airtimeOf(cfg, g.Size+cfg.FrameOverhead)
		}

		if got := w.ChannelAirtime(0); got != want {
			t.Fatalf("Channels=%d charged %v airtime, legacy model charges %v", channels, got, want)
		}
		// The serialised sends must also occupy at least that much
		// simulated time on the single medium.
		if now := clk.Now(); now < want {
			t.Fatalf("elapsed %v < charged airtime %v: reservations overlapped on one channel", now, want)
		}
	}
}

// TestWiFiMultiChannelAirtimeConservation checks per-channel accounting
// with 4 channels: every transmission charges exactly effective-bytes ×
// bitrate of airtime to the channels it touches (sender's and receiver's
// for unicast, all for broadcast), and simulated time bounds the busiest
// channel's airtime.
func TestWiFiMultiChannelAirtimeConservation(t *testing.T) {
	cfg := WiFiConfig{
		BitsPerSecond: 8e6,
		FrameOverhead: 400,
		Channels:      4,
	}
	clk := testClock()
	w := NewWiFi(clk, cfg)
	ids := []NodeID{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, id := range ids {
		w.Join(NewEndpoint(id, 1<<10))
	}
	// Round-robin assignment in join order.
	for i, id := range ids {
		ch, ok := w.ChannelOf(id)
		if !ok || ch != i%4 {
			t.Fatalf("member %s on channel %d, want %d", id, ch, i%4)
		}
	}

	want := make([]time.Duration, 4)
	// Same-channel unicast a(0) -> e(0): channel 0 only.
	if err := w.Unicast("a", "e", ClassData, 2000, nil); err != nil {
		t.Fatal(err)
	}
	want[0] += airtimeOf(cfg, legacyEff(cfg, 2000))
	// Cross-channel unicast a(0) -> b(1): both cells carry it.
	if err := w.Unicast("a", "b", ClassData, 3000, nil); err != nil {
		t.Fatal(err)
	}
	want[0] += airtimeOf(cfg, legacyEff(cfg, 3000))
	want[1] += airtimeOf(cfg, legacyEff(cfg, 3000))
	// Broadcast from c(2): every channel's AP repeats it.
	w.Broadcast("c", ClassPreserve, 1500, nil)
	for i := range want {
		want[i] += airtimeOf(cfg, 1500+cfg.FrameOverhead)
	}
	// Channel 3 saw only the broadcast: spatial reuse kept the unicasts
	// off it entirely.

	var busiest time.Duration
	for i := 0; i < 4; i++ {
		got := w.ChannelAirtime(i)
		if got != want[i] {
			t.Fatalf("channel %d charged %v, want %v", i, got, want[i])
		}
		if got > busiest {
			busiest = got
		}
	}
	if now := clk.Now(); now < busiest {
		t.Fatalf("elapsed %v < busiest channel airtime %v", now, busiest)
	}
	if w.ChannelAirtime(3) >= w.ChannelAirtime(0) {
		t.Fatal("channel 3 should carry strictly less airtime than channel 0")
	}
}

// TestWiFiChannelStatsAndCrossBytes checks the topology export the placement
// planner consumes: ChannelStats mirrors per-channel membership/presence and
// the airtime accumulators, and CrossChannelBytes counts exactly the unicast
// traffic whose endpoints sit on different channels.
func TestWiFiChannelStatsAndCrossBytes(t *testing.T) {
	cfg := WiFiConfig{
		BitsPerSecond: 8e6,
		FrameOverhead: 200,
		Channels:      3,
	}
	clk := testClock()
	w := NewWiFi(clk, cfg)
	ids := []NodeID{"a", "b", "c", "d", "e", "f"}
	for _, id := range ids {
		w.Join(NewEndpoint(id, 1<<10)) // round-robin: a,d->0 b,e->1 c,f->2
	}
	w.SetPresent("e", false) // departed but still attached

	// Same-channel a(0)->d(0), then cross-channel a(0)->b(1).
	if err := w.Unicast("a", "d", ClassData, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Unicast("a", "b", ClassData, 4000, nil); err != nil {
		t.Fatal(err)
	}
	cross, total := w.CrossChannelBytes()
	wantCross := int64(legacyEff(cfg, 4000))
	wantTotal := int64(legacyEff(cfg, 1000)) + wantCross
	if cross != wantCross || total != wantTotal {
		t.Fatalf("CrossChannelBytes = (%d, %d), want (%d, %d)", cross, total, wantCross, wantTotal)
	}

	stats := w.ChannelStats()
	if len(stats) != 3 {
		t.Fatalf("ChannelStats returned %d channels, want 3", len(stats))
	}
	wantMembers := []int{2, 2, 2}
	wantPresent := []int{2, 1, 2}
	for i, st := range stats {
		if st.Channel != i {
			t.Fatalf("stats[%d].Channel = %d", i, st.Channel)
		}
		if st.Members != wantMembers[i] || st.Present != wantPresent[i] {
			t.Fatalf("channel %d members/present = %d/%d, want %d/%d",
				i, st.Members, st.Present, wantMembers[i], wantPresent[i])
		}
		if st.Airtime != w.ChannelAirtime(i) {
			t.Fatalf("channel %d stats airtime %v != accumulator %v", i, st.Airtime, w.ChannelAirtime(i))
		}
	}
	if stats[0].Airtime <= stats[1].Airtime {
		t.Fatal("channel 0 carried both unicasts and must lead channel 1 on airtime")
	}
	if stats[2].Airtime != 0 {
		t.Fatalf("channel 2 idle but charged %v", stats[2].Airtime)
	}
}
