package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCkptIncrementalCutsPause is the acceptance-criteria bench: at the
// largest state size the incremental-async pipeline must cut the measured
// stop-the-world checkpoint pause at least 5x against the synchronous
// full-blob baseline, while actually shipping deltas.
func TestCkptIncrementalCutsPause(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	// Race instrumentation leaks wall time into the scaled clock's pause
	// measurements, inflating the (tiny) incremental pause; keep the hard
	// 5x acceptance ratio for uninstrumented builds only.
	want := 5.0
	if raceEnabled {
		want = 1.5
	}
	// The runs pace simulated time against the wall clock, so a host
	// scheduling stall can starve a run before its checkpoint cadence
	// produces any blobs. Retry before declaring a regression; shipping
	// delta blobs from a full-only run is a protocol bug and stays hard.
	const attempts = 3
	var lastErr string
	for i := 0; i < attempts; i++ {
		rows, err := ckptComparison(5, 150, []int{1 << 20, 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		lastErr = ""
		for _, o := range rows {
			if o.Mode == "full" && o.DeltaBlobs != 0 {
				t.Fatalf("full-only run produced %d delta blobs", o.DeltaBlobs)
			}
			switch {
			case o.Checkpoints == 0:
				lastErr = fmt.Sprintf("%s @ %d bytes: no checkpoints observed", o.Mode, o.StateBytes)
			case o.Mode == "incremental" && o.DeltaBlobs == 0:
				lastErr = fmt.Sprintf("incremental run @ %d bytes produced no delta blobs", o.StateBytes)
			case o.Mode == "incremental" && o.DeltaRatio >= 0.8:
				lastErr = fmt.Sprintf("incremental run @ %d bytes shipped %.2f of full state", o.StateBytes, o.DeltaRatio)
			}
		}
		if lastErr != "" {
			continue
		}
		if cut := ckptPauseCut(rows); cut < want {
			lastErr = fmt.Sprintf("pause cut at largest state = %.1fx, want >= %.1fx", cut, want)
			continue
		}
		return
	}
	t.Fatal(lastErr)
}

func TestCkptJSONRoundTrips(t *testing.T) {
	rows, raw := roundTrip(t, "checkpoint", []CkptOutcome{
		{Mode: "full", StateBytes: 4 << 20, PauseMeanMs: 160, Checkpoints: 9},
		{Mode: "incremental", StateBytes: 4 << 20, PauseMeanMs: 10, Checkpoints: 9, DeltaBlobs: 6},
	})
	if !strings.Contains(raw, `"pause_mean_ms": 160`) {
		t.Fatalf("pause missing from JSON:\n%s", raw)
	}
	var tbl bytes.Buffer
	writeCkptTable(&tbl, rows)
	if !bytes.Contains(tbl.Bytes(), []byte("16.0x")) {
		t.Fatalf("table missing pause cut:\n%s", tbl.String())
	}
}
