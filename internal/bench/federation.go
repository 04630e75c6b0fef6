package bench

import (
	"fmt"
	"io"

	"mobistreams/internal/federation"
	"mobistreams/internal/gossip"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/transport"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
	"mobistreams/internal/xregion"
)

// The federated control-plane experiment is a sweep over region count with
// a fixed population per region, run once over the gossip overlay
// (federation agents on the epidemic broadcast layer) and once over a
// unicast hub (the lead addresses every region point-to-point).
//
// The measured phase is the lead disseminating fleet caps to every
// region — the one-to-city control broadcast the federation exists for.
// Under gossip the relays carry the fan-out, so the busiest node's
// control egress stays flat as the fleet grows; under unicast the lead's
// egress is the whole fan-out and grows linearly with the region count.
// Everything runs on the deterministic in-memory fabric
// (transport.Mesh), so byte counts and convergence rounds are exact
// functions of the seed.
//
// The sweep's region counts are the parameter (tests run its two ends); the
// rest is fixed.
var fedRegionCounts = []int{4, 8, 16, 32, 64}

const (
	// fedPhonesPerRegion is each region's reported population. The headline
	// metric divides the busiest node's control egress by it: bytes the
	// backhaul spends per phone it fronts.
	fedPhonesPerRegion = 50
	// fedCapsEpochs is how many fleet-caps broadcasts the measured phase
	// publishes — enough that eager-push bytes dominate one-off costs.
	fedCapsEpochs = 8
	// fedRoundsPerEpoch is how many anti-entropy rounds each caps epoch is
	// given. Every sweep point runs the same count, so the measured bytes
	// are a per-node rate over identical simulated time — comparing "bytes
	// until converged" instead would conflate fan-out with convergence
	// latency, which legitimately grows with the overlay. Convergence
	// within the window is still asserted.
	fedRoundsPerEpoch = 16
	// fedTuples is the cross-region stream workload: that many sequenced
	// envelopes from the last region into the downtown region. Every
	// fedDupEvery-th is resent, the way a backhaul redial would; the
	// receiver must drop every resend.
	fedTuples   = 30
	fedDupEvery = 3
	// fedMaxRounds bounds anti-entropy rounds per convergence wait.
	fedMaxRounds = 64
)

// FederationPoint is one sweep point's result.
type FederationPoint struct {
	Mode            string `json:"mode"` // "gossip" or "unicast"
	Regions         int    `json:"regions"`
	PhonesPerRegion int    `json:"phones_per_region"`
	// JoinRounds is how many anti-entropy rounds membership took to
	// converge after every region joined at once (unicast: the fixed
	// two-round hub exchange).
	JoinRounds int `json:"join_rounds"`
	// CapsRoundsMean is the mean rounds per caps broadcast until every
	// region held the new epoch.
	CapsRoundsMean float64 `json:"caps_rounds_mean"`
	// LeadCtrlBytes / MaxCtrlBytes are control-class egress during the
	// measured caps phase: the lead's, and the busiest node's.
	LeadCtrlBytes int64 `json:"lead_ctrl_bytes"`
	MaxCtrlBytes  int64 `json:"max_ctrl_bytes"`
	// CtrlBytesPerPhone is MaxCtrlBytes over the phones one region
	// fronts — the headline: what the busiest backhaul node spends per
	// phone it serves, across the whole caps phase.
	CtrlBytesPerPhone float64 `json:"ctrl_bytes_per_phone"`
	// Cross-region stream counters (gossip mode only; the unicast
	// baseline measures control fan-out, not data routing).
	XRegionSent        uint64 `json:"xregion_sent"`
	XRegionRetries     uint64 `json:"xregion_retries"`
	XRegionDelivered   uint64 `json:"xregion_delivered"`
	XRegionDupsDropped uint64 `json:"xregion_dups_dropped"`
	// XRegionDupOutputs counts envelopes the consumer saw more than once
	// — the exactly-once property, pinned at 0 by the CI gate.
	XRegionDupOutputs uint64 `json:"xregion_dup_outputs"`
	// AggOutputs counts tuples the downtown aggregation stage emitted
	// from the delivered envelopes.
	AggOutputs int `json:"agg_outputs"`
}

// ctrlSent snapshots every node's control-class egress.
func ctrlSent(mems []*transport.Mem) []int64 {
	sent := make([]int64, len(mems))
	for i, m := range mems {
		sent[i] = m.SentBytes(simnet.ClassControl)
	}
	return sent
}

// measureCtrl fills in the measured phase's egress since base: the lead's
// (node 0), the busiest node's, and the headline per-phone figure.
func (p *FederationPoint) measureCtrl(mems []*transport.Mem, base []int64) {
	for i, now := range ctrlSent(mems) {
		p.MaxCtrlBytes = max(p.MaxCtrlBytes, now-base[i])
	}
	p.LeadCtrlBytes = mems[0].SentBytes(simnet.ClassControl) - base[0]
	p.CtrlBytesPerPhone = float64(p.MaxCtrlBytes) / float64(fedPhonesPerRegion)
}

// runFederationGossip measures one sweep point on the gossip overlay.
func runFederationGossip(seed int64, regions int) (FederationPoint, error) {
	p := FederationPoint{Mode: "gossip", Regions: regions, PhonesPerRegion: fedPhonesPerRegion}
	mesh := transport.NewMesh(seed + int64(regions))
	ids := make([]simnet.NodeID, regions)
	mems := make([]*transport.Mem, regions)
	agents := make([]*federation.Agent, regions)
	// The overlay's tuning: default fanout, LazyAfter 8 (depth for 64-region
	// floods), MaxDigest 8 (constant-size digests — the flat-fan-out claim
	// dies without the bound).
	gcfg := gossip.Config{LazyAfter: 8, MaxDigest: 8, Seed: seed}
	var at int64
	for i := 0; i < regions; i++ {
		ids[i] = simnet.NodeID(fmt.Sprintf("fed%02d", i))
		mems[i] = mesh.Attach(ids[i])
	}
	for i := range ids {
		a := federation.NewAgent(ids[i], mems[i], federation.Config{
			Region: fmt.Sprintf("r%02d", i),
			Lead:   i == 0,
			Gossip: gcfg,
			Now:    func() int64 { at++; return at },
		})
		a.SetPeers(ids)
		agents[i] = a
		mem := mems[i]
		mem.Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
			a.Handle(from, class, frame)
		})
	}

	// settle pumps anti-entropy rounds until done() holds, returning the
	// round count (0 = the eager flood alone sufficed).
	settle := func(done func() bool) (int, error) {
		mesh.Drain()
		for round := 0; ; round++ {
			if done() {
				return round, nil
			}
			if round >= fedMaxRounds {
				return round, fmt.Errorf("federation bench: no convergence within %d rounds at %d regions", fedMaxRounds, regions)
			}
			for _, a := range agents {
				a.Tick()
			}
			mesh.Drain()
		}
	}

	// Phase 1: every region joins at once; count rounds to full membership.
	for _, a := range agents {
		a.Join()
	}
	var err error
	p.JoinRounds, err = settle(func() bool {
		for _, a := range agents {
			if len(a.Members()) != regions {
				return false
			}
		}
		return true
	})
	if err != nil {
		return p, err
	}

	// Phase 2 (unmeasured): every region publishes one telemetry rollup
	// so the lead has a real aggregate to cap against.
	for i, a := range agents {
		a.PublishRollup(wire.Rollup{
			Phones: fedPhonesPerRegion, Idle: i % 5, Backlog: i % 7,
			BatteryRisk: i % 2, OutTuples: uint64(10 * i),
		})
	}
	want := regions * fedPhonesPerRegion
	if _, err := settle(func() bool {
		agg := agents[0].Aggregate()
		return agg.Phones == want
	}); err != nil {
		return p, err
	}

	// Phase 3 (measured): fedCapsEpochs times, one region's telemetry
	// changes, the lead re-aggregates on its own tick and broadcasts the
	// new fleet caps, and every region must hold them — the full
	// telemetry-up, caps-down control loop. Each epoch runs a fixed
	// fedRoundsPerEpoch rounds regardless of sweep point, so the byte
	// deltas are per-node rates over identical simulated time.
	base := ctrlSent(mems)
	// Every member's epoch is 1 after phase 2, so the aggregate epoch —
	// the sum — starts at the region count and each rollup below bumps
	// it by one.
	capsEpoch := uint64(regions)
	totalRounds := 0
	for e := 0; e < fedCapsEpochs; e++ {
		agents[1].PublishRollup(wire.Rollup{
			Phones: fedPhonesPerRegion, Idle: 1, Backlog: 3 + e, BatteryRisk: 1,
			OutTuples: uint64(100 + e),
		})
		capsEpoch++
		converged := func() bool {
			for _, a := range agents {
				caps, ok := a.Caps()
				if !ok || caps.Epoch < capsEpoch {
					return false
				}
			}
			return true
		}
		at := 0
		mesh.Drain()
		for round := 1; round <= fedRoundsPerEpoch; round++ {
			for _, a := range agents {
				a.Tick()
			}
			mesh.Drain()
			if at == 0 && converged() {
				at = round
			}
		}
		if at == 0 {
			return p, fmt.Errorf("federation bench: caps epoch %d not fleet-wide within %d rounds at %d regions",
				capsEpoch, fedRoundsPerEpoch, regions)
		}
		totalRounds += at
	}
	p.CapsRoundsMean = float64(totalRounds) / float64(fedCapsEpochs)
	p.measureCtrl(mems, base)

	// Phase 4: cross-region stream — the last region (a bus line at the
	// city's edge) feeds the downtown aggregation region (r01) sequenced
	// envelopes, resending every fedDupEvery-th the way a backhaul redial
	// would. The consumer runs the delivered readings through the shared
	// xregion stage vocabulary's aggregate operator; dedup must make the
	// retries invisible to it.
	src, dst := agents[regions-1], agents[1]
	agg, err := xregion.NewStageOp("agg", "downtown")
	if err != nil {
		return p, err
	}
	seen := make(map[uint64]int)
	dst.RouteFunc("readings", func(env wire.XRegionEnv) {
		seen[env.Seq]++
		if seen[env.Seq] > 1 {
			p.XRegionDupOutputs++
			return
		}
		t := &tuple.Tuple{
			Seq: env.Seq, Source: env.FromRegion, Kind: "reading",
			Size: len(env.Payload), Value: float64(env.Seq),
		}
		outs, err := operator.Run(agg, "", t)
		if err == nil {
			p.AggOutputs += len(outs)
		}
	})
	for i := 1; i <= fedTuples; i++ {
		payload := []byte(fmt.Sprintf("reading/%d/%d", i, seed))
		seq, err := src.SendTuple("r01", "readings", payload)
		if err != nil {
			return p, err
		}
		if i%fedDupEvery == 0 {
			if err := src.Resend("r01", "readings", seq, payload); err != nil {
				return p, err
			}
			p.XRegionRetries++
		}
	}
	mesh.Drain()
	st := dst.Stats()
	p.XRegionSent = src.Stats().TuplesSent
	p.XRegionDelivered = st.TuplesDelivered
	p.XRegionDupsDropped = st.DupsDropped
	return p, nil
}

// runFederationUnicast measures one sweep point on the unicast baseline:
// the lead is a hub that addresses every region directly, so the whole
// caps fan-out is its own egress.
func runFederationUnicast(seed int64, regions int) (FederationPoint, error) {
	p := FederationPoint{Mode: "unicast", Regions: regions, PhonesPerRegion: fedPhonesPerRegion}
	mesh := transport.NewMesh(seed + int64(regions))
	ids := make([]simnet.NodeID, regions)
	mems := make([]*transport.Mem, regions)
	capsGot := make([]int, regions)
	for i := 0; i < regions; i++ {
		ids[i] = simnet.NodeID(fmt.Sprintf("uni%02d", i))
		mems[i] = mesh.Attach(ids[i])
		i := i
		mems[i].Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
			if wire.FrameKind(frame) == wire.KindRollup {
				if ru, err := wire.DecodeRollup(frame); err == nil && ru.Region == federation.FleetScope {
					capsGot[i]++
				}
			}
		})
	}

	// Join: every region tells the hub its rollup; the hub acks each.
	// Two rounds by construction — the hub topology has no discovery.
	for i := 1; i < regions; i++ {
		ru := wire.Rollup{
			Region: fmt.Sprintf("r%02d", i), Lead: ids[i], Epoch: 1,
			Phones: fedPhonesPerRegion, Idle: i % 5, Backlog: i % 7, BatteryRisk: i % 2,
		}
		if err := mems[i].Tell(ids[0], simnet.ClassControl, wire.AppendRollup(nil, &ru)); err != nil {
			return p, err
		}
	}
	mesh.Drain()
	ack := wire.Rollup{Region: "r00", Lead: ids[0], Epoch: 1, Phones: fedPhonesPerRegion}
	ackFrame := wire.AppendRollup(nil, &ack)
	for i := 1; i < regions; i++ {
		if err := mems[0].Tell(ids[i], simnet.ClassControl, ackFrame); err != nil {
			return p, err
		}
	}
	mesh.Drain()
	p.JoinRounds = 2

	// Measured phase, mirroring the gossip run's control loop: one
	// region's telemetry changes (a Tell up to the hub), and the hub
	// pushes the new caps to every region — one Tell per region per
	// epoch, all of it the hub's own egress.
	base := ctrlSent(mems)
	want := regions * fedPhonesPerRegion
	for e := 0; e < fedCapsEpochs; e++ {
		up := wire.Rollup{
			Region: "r01", Lead: ids[1], Epoch: uint64(2 + e),
			Phones: fedPhonesPerRegion, Idle: 1, Backlog: 3 + e, BatteryRisk: 1,
		}
		if err := mems[1].Tell(ids[0], simnet.ClassControl, wire.AppendRollup(nil, &up)); err != nil {
			return p, err
		}
		mesh.Drain()
		caps := wire.Rollup{
			Region: federation.FleetScope, Lead: ids[0],
			Epoch: uint64(regions + e + 1), Phones: want, Backlog: 3 + e,
		}
		frame := wire.AppendRollup(nil, &caps)
		for i := 1; i < regions; i++ {
			if err := mems[0].Tell(ids[i], simnet.ClassControl, frame); err != nil {
				return p, err
			}
		}
		mesh.Drain()
	}
	for i := 1; i < regions; i++ {
		if capsGot[i] != fedCapsEpochs {
			return p, fmt.Errorf("federation bench: unicast region %d received %d/%d caps", i, capsGot[i], fedCapsEpochs)
		}
	}
	p.CapsRoundsMean = 1
	p.measureCtrl(mems, base)
	return p, nil
}

// federationComparison sweeps region counts in both modes. Rows come out
// grouped by mode, each group in sweep order.
func federationComparison(seed int64, regionCounts []int) ([]FederationPoint, error) {
	var rows []FederationPoint
	for _, run := range []func(int64, int) (FederationPoint, error){runFederationGossip, runFederationUnicast} {
		for _, n := range regionCounts {
			if n < 3 {
				return nil, fmt.Errorf("federation bench: region count %d below minimum 3", n)
			}
			p, err := run(seed, n)
			if err != nil {
				return nil, err
			}
			rows = append(rows, p)
		}
	}
	return rows, nil
}

// writeFederationTable renders the sweep for humans.
func writeFederationTable(w io.Writer, rows []FederationPoint) {
	fmt.Fprintln(w, "Federation — control fan-out vs region count (caps phase, busiest node)")
	fmt.Fprintf(w, "%-8s %8s %6s %11s %11s %11s %11s %6s %6s %5s\n",
		"mode", "regions", "join", "caps rnds", "lead B", "max B", "B/phone", "xsent", "xdlvd", "xdup")
	for _, p := range rows {
		fmt.Fprintf(w, "%-8s %8d %6d %11.1f %11d %11d %11.1f %6d %6d %5d\n",
			p.Mode, p.Regions, p.JoinRounds, p.CapsRoundsMean,
			p.LeadCtrlBytes, p.MaxCtrlBytes, p.CtrlBytesPerPhone,
			p.XRegionSent, p.XRegionDelivered, p.XRegionDupOutputs)
	}
}

var federationExperiment = experiment("federation",
	"control fan-out vs region count, gossip overlay vs unicast hub",
	func(p Params) ([]FederationPoint, error) { return federationComparison(p.Seed, fedRegionCounts) },
	writeFederationTable,
	"federation results carry no gossip-mode sweep rows",
	// The gossip overlay's busiest-node control bytes per phone at the
	// largest swept region count — the sub-linear fan-out claim's number.
	// The byte counts are deterministic (seeded simulation), so the grace
	// only needs to cover intentional small retunes (peer-set ordering,
	// digest window phase), not noise.
	GateRow{Key: "federation_ctrl_bytes_per_phone_largest", Grace: 20,
		What: "federation ctrl bytes/phone", Format: "%.1f", Fail: "federation ctrl bytes/phone regressed: %s > %s",
		Pick: pick(func(rows []FederationPoint) (float64, float64, bool) {
			var largest FederationPoint
			for _, p := range rows {
				if p.Mode == "gossip" && p.Regions > largest.Regions {
					largest = p
				}
			}
			return largest.CtrlBytesPerPhone, 0, largest.CtrlBytesPerPhone > 0
		})},
	// The sweep's exactly-once invariant: a duplicate cross-region output at
	// any sweep point is a dedup bug, pinned at zero with no grace.
	GateRow{What: "federation duplicate cross-region outputs", Format: "%.0f",
		Fail: "federation run published %s duplicate cross-region outputs (must stay below %s)",
		Pick: pick(func(rows []FederationPoint) (dups, _ float64, found bool) {
			for _, p := range rows {
				if p.Mode == "gossip" {
					dups, found = dups+float64(p.XRegionDupOutputs), true
				}
			}
			return dups, 1, found
		})},
)
