package region

import (
	"mobistreams/internal/scheduler"
	"mobistreams/internal/wire"
)

// lowBatteryFraction is the battery level below which a phone counts
// toward the rollup's risk figure: twice the 0.05 chronic threshold at
// which a node reports its own battery as an emergency.
const lowBatteryFraction = 0.10

// RollupFromStats folds one telemetry snapshot into the federation's
// compact rollup frame. It is a pure function so the controller can reuse
// the telemetry poll its scheduling tick already paid for.
func RollupFromStats(rs scheduler.RegionStats, epoch uint64) wire.Rollup {
	ru := wire.Rollup{Region: rs.Region, Epoch: epoch, Phones: len(rs.Phones)}
	for i := range rs.Phones {
		p := &rs.Phones[i]
		if p.Idle {
			ru.Idle++
		}
		ru.Backlog += p.Backlog
		if p.BatteryFraction < lowBatteryFraction {
			ru.BatteryRisk++
		}
	}
	return ru
}

// Rollup snapshots the region into the federation's summary frame: a few
// dozen bytes standing in for per-phone telemetry that never leaves the
// region — the compression that keeps backhaul control traffic flat as
// the federation grows.
func (r *Region) Rollup(epoch uint64) wire.Rollup {
	ru := RollupFromStats(r.Telemetry(), epoch)
	ru.OutTuples = r.Outputs()
	return ru
}
