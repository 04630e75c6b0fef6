// Package metrics holds the row the paper's tables and figures are read
// from — per-region throughput, end-to-end latency, and byte accounting for
// preservation and checkpoint traffic — and the allocation meter the scale
// experiments report. The numbers themselves live in the region's
// obs.Registry; Report is the view region.Report and
// server's deployment.Report fill from it.
package metrics

import "time"

// Report is the summary of one run's measurement window, read from the
// registry families and the medium's byte counters when the row is built.
type Report struct {
	Scheme         string
	App            string
	Tuples         int64
	Window         time.Duration
	ThroughputTPS  float64
	MeanLatency    time.Duration
	P95Latency     time.Duration
	DataBytes      int64
	CheckpointNet  int64 // checkpoint + bitmap bytes on the network
	ReplicationNet int64 // duplicated-tuple bytes on the network
	PreservedBytes int64 // source + edge preservation bytes stored
	InboxDrops     int64 // UDP-semantics deliveries lost to full endpoint inboxes

	// Transport-socket health: re-established connections and dead-conn
	// events. Always 0 on the simulated backend (nothing to redial).
	Redials   int64
	DeadConns int64

	// BatchFlushes and MeanBatch summarise edge batching: network sends
	// of coalesced data tuples and the mean messages per send.
	BatchFlushes int64
	MeanBatch    float64

	// Migrations counts planned live migrations the controller completed —
	// disruptions that would otherwise have been recoveries.
	Migrations int64

	// Checkpoint-pipeline metrics: the executor's stop-the-world pause,
	// the bytes checkpoints put on flash/network versus the full state
	// they represent, and the delta/full blob split.
	CkptPauseMean  time.Duration
	CkptPauseMax   time.Duration
	CkptBlobBytes  int64
	CkptFullBytes  int64
	CkptDeltaRatio float64
	CkptDeltaBlobs int64
	CkptFullBlobs  int64

	// Channel-domain observability: per-channel airtime and membership
	// from the WiFi medium, and the share of reliable unicast bytes whose
	// endpoints sat on different channels (each such transfer charges two
	// cells of airtime — the cost the placement planner packs away).
	Channels          int
	ChannelAirtime    []time.Duration
	ChannelMembers    []int
	CrossChannelShare float64
}
