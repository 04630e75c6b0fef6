package region

import (
	"sync/atomic"
	"time"

	"mobistreams/internal/metrics"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
)

// windowFamilies are the registry families a measurement window clears:
// everything Report reads that is not a cumulative byte counter.
var windowFamilies = []obs.Family{
	obs.SinkLatency, obs.BatchMsgs,
	obs.CkptPause, obs.CkptDeltaBlob, obs.CkptFullBlob, obs.CkptState,
}

// Outputs reports how many deduplicated sink results the region has
// published: the sum of the per-source sets' counts, so a caller polling
// for progress pays O(sources) however many results there have been.
func (r *Region) Outputs() uint64 {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	return r.outputsLocked()
}

func (r *Region) outputsLocked() uint64 {
	var n uint64
	for _, seen := range r.seenOutput {
		n += seen.Len()
	}
	return n
}

// OpenWindow starts a measurement window at the current simulated time and
// returns it: Report counts outputs and rates from here, and the sink,
// batch and checkpoint families restart empty. Start opens the first one.
func (r *Region) OpenWindow() time.Duration {
	now := r.clk.Now()
	r.outMu.Lock()
	r.winStart, r.winBase = now, r.outputsLocked()
	r.outMu.Unlock()
	r.obs.Reset(windowFamilies...)
	return now
}

// SinkLatency is the sink-latency family's histogram: the end-to-end
// latency of every result published since the window opened.
func (r *Region) SinkLatency() *obs.Histogram { return r.sink }

// batchStats is a read-only view of the region's batch-size family.
type batchStats struct{ h *obs.Histogram }

// Flushes reports how many batches were sent.
func (b batchStats) Flushes() int64 { return int64(b.h.Count()) }

// Mean reports the mean messages per batch, or 0 before the first flush.
func (b batchStats) Mean() float64 { return b.h.Mean() }

// BatchStats views the edge batching of every node in the region.
func (r *Region) BatchStats() batchStats { return batchStats{r.obs.Hist(obs.BatchMsgs, "")} }

// ckptStats is a read-only snapshot of the region's checkpoint families,
// merged across slots. Count, sum and max merge exactly, so every number is
// exact.
type ckptStats struct{ pause, delta, full, state *obs.Histogram }

// CkptStats snapshots the checkpoint pipeline of every node in the region.
func (r *Region) CkptStats() ckptStats {
	return ckptStats{
		pause: r.obs.Merged(obs.CkptPause),
		delta: r.obs.Merged(obs.CkptDeltaBlob),
		full:  r.obs.Merged(obs.CkptFullBlob),
		state: r.obs.Merged(obs.CkptState),
	}
}

// Count reports how many checkpoints were taken.
func (c ckptStats) Count() int64 { return int64(c.pause.Count()) }

// DeltaBlobs reports how many checkpoints travelled as delta links.
func (c ckptStats) DeltaBlobs() int64 { return int64(c.delta.Count()) }

// FullBlobs reports how many checkpoints travelled as full base blobs.
func (c ckptStats) FullBlobs() int64 { return int64(c.full.Count()) }

// PauseMean reports the mean stop-the-world pause, or 0 with no samples.
func (c ckptStats) PauseMean() time.Duration { return time.Duration(c.pause.Mean()) }

// PauseMax reports the largest stop-the-world pause.
func (c ckptStats) PauseMax() time.Duration { return time.Duration(c.pause.Max()) }

// Bytes reports travelled blob bytes and the full-state bytes they stand
// for.
func (c ckptStats) Bytes() (blob, full int64) {
	return int64(c.delta.Sum() + c.full.Sum()), int64(c.state.Sum())
}

// DeltaRatio reports travelled bytes over full-state bytes: 1.0 means every
// checkpoint shipped its whole state, lower is the incremental saving.
func (c ckptStats) DeltaRatio() float64 {
	blob, full := c.Bytes()
	if full == 0 {
		return 0
	}
	return float64(blob) / float64(full)
}

// Report views the region's measurement window at simulated time now: the
// output count and rate since OpenWindow, the window's sink, batch and
// checkpoint families, and the medium's cumulative byte counters.
func (r *Region) Report(now time.Duration) metrics.Report {
	r.outMu.Lock()
	window, tuples := now-r.winStart, int64(r.outputsLocked()-r.winBase)
	r.outMu.Unlock()
	var tps float64
	if window > 0 {
		tps = float64(tuples) / window.Seconds()
	}
	src, edge := r.PreservedBytes()
	ckpt := r.CkptStats()
	ckptBlob, ckptFull := ckpt.Bytes()
	batch := r.BatchStats()
	chans := r.wifi.ChannelStats()
	airtime := make([]time.Duration, len(chans))
	members := make([]int, len(chans))
	for i, cs := range chans {
		airtime[i] = cs.Airtime
		members[i] = cs.Members
	}
	var crossShare float64
	if cross, total := r.wifi.CrossChannelBytes(); total > 0 {
		crossShare = float64(cross) / float64(total)
	}
	return metrics.Report{
		Scheme:         r.cfg.Scheme.String(),
		Tuples:         tuples,
		Window:         window,
		ThroughputTPS:  tps,
		MeanLatency:    time.Duration(r.sink.Mean()),
		P95Latency:     time.Duration(r.sink.Percentile(95)),
		DataBytes:      r.wifi.Counters.Bytes(simnet.ClassData),
		CheckpointNet:  r.wifi.Counters.Bytes(simnet.ClassCheckpoint) + r.wifi.Counters.Bytes(simnet.ClassBitmap),
		ReplicationNet: r.wifi.Counters.Bytes(simnet.ClassReplication),
		PreservedBytes: src + edge,
		InboxDrops:     r.InboxDrops(),
		BatchFlushes:   batch.Flushes(),
		MeanBatch:      batch.Mean(),
		Migrations:     atomic.LoadInt64(&r.migrations),
		CkptPauseMean:  ckpt.PauseMean(),
		CkptPauseMax:   ckpt.PauseMax(),
		CkptDeltaRatio: ckpt.DeltaRatio(),
		CkptBlobBytes:  ckptBlob,
		CkptFullBytes:  ckptFull,
		CkptDeltaBlobs: ckpt.DeltaBlobs(),
		CkptFullBlobs:  ckpt.FullBlobs(),

		Channels:          len(chans),
		ChannelAirtime:    airtime,
		ChannelMembers:    members,
		CrossChannelShare: crossShare,
	}
}
