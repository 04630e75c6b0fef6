// Package placement is the topology-aware placement planner: a pure,
// deterministic decision library that turns a region topology snapshot
// (AP/channel domains, per-domain airtime and membership, per-phone
// telemetry, the current slot→phone assignment and the graph's slot
// communication edges) into a versioned Plan of ordered migration, reserve
// and release steps.
//
// Three cooperating components produce a plan:
//
//   - the pack engine (pack.go) groups communicating slots by the graph's
//     slot projections and packs each group whole into one channel domain
//     before spilling, minimising the cross-channel hops that charge two
//     cells of airtime per transfer;
//   - the forecaster (forecast.go) extrapolates churn telemetry — battery
//     drain curves, GPS trajectory to the WiFi boundary, the observed
//     departure rate per domain — into per-phone hazard horizons, so
//     evacuations are planned ahead of predicted departures;
//   - the spare pool manager (spares.go) keeps N warm idle phones reserved
//     per domain, so a planned or emergency migration lands in-domain
//     without paying cross-channel transfer cost.
//
// The package holds no runtime references: the region builds the Snapshot,
// the controller executes the Plan, and the same snapshot always encodes
// to the same plan, byte for byte.
package placement

import (
	"fmt"
	"strings"
	"time"

	"mobistreams/internal/simnet"
)

// Domain is one AP/channel airtime domain's snapshot.
type Domain struct {
	ID int
	// Members / Present mirror simnet's channelStat: endpoints assigned to
	// the channel, and the subset in radio range.
	Members int
	Present int
	// Airtime is the cumulative airtime the channel has carried.
	Airtime time.Duration
	// Departures counts phones lost from this domain (departed or failed)
	// since the region started; the forecaster differentiates it across
	// plans into a Poisson departure-rate estimate.
	Departures int64
}

// Phone is one phone's topology and telemetry snapshot.
type Phone struct {
	ID     simnet.NodeID
	Domain int
	// Idle: available as a migration target. Spare: idle but claimed into
	// a warm spare pool by a previous plan (not in the region's idle list).
	Idle  bool
	Spare bool

	BatteryJoules   float64
	BatteryFraction float64
	DrainWatts      float64
	Backlog         int

	// Mobility relative to the region centre.
	X, Y, VelX, VelY float64
}

// Assignment is one slot's current primary placement.
type Assignment struct {
	Slot  string
	Phone simnet.NodeID
}

// Edge is one directed cross-slot communication edge (weight = number of
// operator edges aggregated), from the graph's slot projections.
type Edge struct {
	From, To string
	Weight   int
}

// Snapshot is everything the engine reads: topology plus telemetry at one
// instant. Builders must present Domains ordered by ID, Phones sorted by
// ID, Slots sorted by slot and Edges sorted by (From, To) — the engine's
// determinism contract is "same snapshot bytes in, same plan bytes out".
type Snapshot struct {
	Region  string
	Now     time.Duration
	RadiusM float64 // WiFi boundary; 0 disables trajectory forecasting

	Domains []Domain
	Phones  []Phone
	Slots   []Assignment
	Edges   []Edge
}

func (s *Snapshot) phone(id simnet.NodeID) *Phone {
	for i := range s.Phones {
		if s.Phones[i].ID == id {
			return &s.Phones[i]
		}
	}
	return nil
}

// StepKind discriminates plan steps. The engine emits the first three; the
// controller builds recovery, departure-handoff and elastic plans from the
// rest, and one executor runs every kind.
type StepKind int

const (
	StepMigrate      StepKind = iota // Slot moves from phone From to To (in domain Domain)
	StepReserve                      // idle phone To joins domain Domain's warm spare pool
	StepRelease                      // spare phone To returns to the shared idle pool
	StepActivate                     // idle phone To becomes the host of Slot
	StepPause                        // Phones pause at tuple boundaries, each acknowledged
	StepRestore                      // Phones reload Version from local storage, each reporting
	StepFetchRestore                 // To restores Slot's Version from the first of holders Phones (From is the first) that serves it
	StepReplay                       // source hosts Phones replay input since Version as catch-up Epoch
	StepResume                       // Phones resume in order, each acknowledged before the next
	StepPromote                      // Slot's standby becomes its primary
	StepKill                         // the region stops and is bypassed
	StepHandoff                      // departing From hands Slot's live state to idle To
	StepUnregister                   // departed phone From leaves the region
	StepSplit                        // keyed Group's instance Donor hands half its keys to dormant Recipient
	StepMerge                        // keyed Group's instance Donor hands all its keys to Recipient and goes dormant
)

var stepNames = [...]string{
	StepMigrate: "migrate", StepReserve: "reserve", StepRelease: "release",
	StepActivate: "activate", StepPause: "pause", StepRestore: "restore",
	StepFetchRestore: "fetch-restore", StepReplay: "replay", StepResume: "resume",
	StepPromote: "promote", StepKill: "kill", StepHandoff: "handoff",
	StepUnregister: "unregister", StepSplit: "split", StepMerge: "merge",
}

func (k StepKind) String() string {
	if k >= 0 && int(k) < len(stepNames) {
		return stepNames[k]
	}
	return fmt.Sprintf("step(%d)", int(k))
}

// Step is one ordered plan action.
type Step struct {
	Kind   StepKind
	Slot   string
	From   simnet.NodeID
	To     simnet.NodeID
	Domain int // target domain (engine steps)
	// Phones are the targets of the region-wide recovery steps, in the
	// order they are served.
	Phones  []simnet.NodeID
	Version uint64
	Epoch   uint64
	// Group is the keyed group a split or merge reconfigures; Donor and
	// Recipient are instance indices in it. Slot is the donor's slot.
	Group            string
	Donor, Recipient int
	Reason           string
}

func (st Step) String() string {
	switch st.Kind {
	case StepMigrate:
		return fmt.Sprintf("migrate %s %s->%s dom%d %s", st.Slot, st.From, st.To, st.Domain, st.Reason)
	case StepReserve, StepRelease:
		return fmt.Sprintf("%s %s dom%d %s", st.Kind, st.To, st.Domain, st.Reason)
	case StepSplit, StepMerge:
		return fmt.Sprintf("%s %s %d->%d %s", st.Kind, st.Group, st.Donor, st.Recipient, st.Reason)
	}
	// Recovery and handoff steps: the kind, then the fields it carries.
	f := []string{st.Kind.String(), st.Slot}
	if st.Version != 0 {
		f = append(f, fmt.Sprintf("v%d", st.Version))
	}
	if st.Epoch != 0 {
		f = append(f, fmt.Sprintf("e%d", st.Epoch))
	}
	if st.From != "" && st.To != "" {
		f = append(f, string(st.From)+"->"+string(st.To))
	} else {
		f = append(f, string(st.From)+string(st.To))
	}
	if st.Phones != nil {
		f = append(f, fmt.Sprint(st.Phones))
	}
	// Fields drops the fields a kind leaves empty.
	return strings.Join(strings.Fields(strings.Join(append(f, st.Reason), " ")), " ")
}

// Plan is one versioned plan. Steps are ordered: the controller executes
// them sequentially and stops at the first failed step the rest depend on.
// A placement plan aborts there and the next tick replans from fresh
// telemetry. Cause is empty for the engine's plans; the controller's
// recovery and handoff plans name what triggered them.
type Plan struct {
	Region  string
	Version uint64
	Cause   string
	Steps   []Step
}

// Encode renders the plan deterministically, one step per line. The golden
// determinism test pins this output; the journal records it per step.
func (p *Plan) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s v%d steps=%d", p.Region, p.Version, len(p.Steps))
	if p.Cause != "" {
		b.WriteString(" " + p.Cause)
	}
	b.WriteByte('\n')
	for i, st := range p.Steps {
		fmt.Fprintf(&b, "%2d %s\n", i, st)
	}
	return b.String()
}
