package node

import (
	"math"
	"slices"
	"testing"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
)

// A broadcast burst reaches a node as one message, and the node assembles
// the same blocks, stores the same blobs and drains the same receive energy
// as a node handed the burst's datagrams one message each. The burst
// carries blocks of two blobs, and the medium loses some of them.
func TestBurstMatchesPerDatagramDelivery(t *testing.T) {
	clk := clock.NewScaled(1e6)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12, LossProb: 0.3, Seed: 4})
	w.Join(simnet.NewEndpoint("s", 16))
	ep := simnet.NewEndpoint("rx", 16)
	w.Join(ep)

	blobs := []*checkpoint.Blob{
		{Slot: "a", Version: 1, Size: 20 * 1024, Ops: map[string][]byte{}},
		{Slot: "b", Version: 2, Size: 2 * 1024, Ops: map[string][]byte{}},
	}
	var grams []simnet.Datagram
	for _, b := range blobs {
		b.Seal()
		total := b.Size / 1024
		for i := 0; i < total; i++ {
			grams = append(grams, simnet.Datagram{Size: 1024, Payload: &broadcast.BlockMsg{
				Slot: b.Slot, Version: b.Version, Index: i, Total: total, Blob: b, CRC: checkpoint.ChunkCRC(b.CRC, i)}})
		}
	}
	w.BroadcastBatch("s", simnet.ClassCheckpoint, grams)
	if len(ep.Inbox()) != 1 {
		t.Fatalf("inbox holds %d messages, want one burst", len(ep.Inbox()))
	}
	m := <-ep.Inbox()
	got := simnet.Datagrams(nil, m)
	if len(got) < 2 || len(got) == len(grams) {
		t.Fatalf("burst carries %d of %d datagrams, want some lost", len(got), len(grams))
	}

	burst := edgeNode("", Config{ID: "rx", Store: storage.New()})
	full := burst.cfg.Phone.EnergyJoules()
	burst.dispatch(m)
	single := edgeNode("", Config{ID: "rx", Store: storage.New()})
	for _, d := range got {
		single.dispatch(simnet.Message{From: m.From, To: m.To, Class: m.Class, Size: d.Size, Payload: d.Payload})
	}

	for _, b := range blobs {
		q := broadcast.QueryMsg{Slot: b.Slot, Version: b.Version, Total: b.Size / 1024}
		if x, y := burst.recv.Bitmap(q), single.recv.Bitmap(q); !slices.Equal(x, y) || !slices.Contains(x, true) {
			t.Fatalf("blob %s: burst assembled %v, one by one %v", b.Slot, x, y)
		}
		_, x := burst.cfg.Store.Blob(b.Version, b.Slot)
		_, y := single.cfg.Store.Blob(b.Version, b.Slot)
		if x != y {
			t.Fatalf("blob %s stored: burst %v, one by one %v", b.Slot, x, y)
		}
	}
	x, y := burst.cfg.Phone.EnergyJoules(), single.cfg.Phone.EnergyJoules()
	if x >= full || math.Abs(x-y) > 1e-6 { // one drain or many: float rounding only
		t.Fatalf("receive energy: burst left %v J, one by one %v J, of %v", x, y, full)
	}
}
