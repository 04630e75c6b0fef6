// Package scheduler holds the control plane's policy glue: the telemetry
// types the region produces (RegionStats), the Planner that runs the
// placement engine's plans past the shared per-slot cooldowns ledger, and
// the ElasticPolicy that decides keyed split/merges. Planned live
// migrations move an operator slot off an at-risk phone *before* the phone
// dies or walks out of range, so the disruption the paper handles with
// emergency checkpoint/recovery (§III-D, §IV-B) becomes a cheap in-region
// handoff instead.
//
// The package deliberately holds no references to the region, node or
// controller runtimes: the region produces RegionStats, the controller
// executes the returned steps, and everything in between is plain data —
// which keeps the policies unit-testable without a running system.
package scheduler

import (
	"time"

	"mobistreams/internal/phone"
	"mobistreams/internal/simnet"
)

// PhoneStat is one phone's telemetry snapshot.
type PhoneStat struct {
	ID    simnet.NodeID
	Slots []string // slots whose primary is this phone; empty for idle
	Idle  bool     // available as a migration target

	// Battery telemetry.
	BatteryJoules   float64
	BatteryFraction float64
	// DrainWatts is the observed discharge rate since the previous poll
	// (0 when unknown, e.g. on the first poll).
	DrainWatts float64

	// Load telemetry (from the node runtime and the PR-1 batch metrics).
	Backlog   int     // queued-but-unprocessed stream items
	TupleRate float64 // tuples processed per simulated second since last poll

	// Mobility telemetry.
	Position phone.Position
	VelX     float64 // metres per simulated second
	VelY     float64
}

// RegionStats is one region's telemetry snapshot at simulated time Now.
type RegionStats struct {
	Region  string
	Now     time.Duration
	RadiusM float64 // WiFi range boundary, centred at the origin; 0 disables departure prediction
	Phones  []PhoneStat
}
