package placement

import (
	"sort"
	"sync"
	"time"

	"mobistreams/internal/simnet"
)

// The engine's tuning: constants, as no caller ever set them.
const (
	// A domain hosting slots keeps sparesPerDomain warm spares, one more
	// once its departure-rate estimate reaches departRateBoost
	// phones/minute.
	sparesPerDomain = 1
	departRateBoost = 1.5
	// A host forecast to leave within hazardHorizon is evacuated: more
	// than a code ship plus a transfer, so planned moves beat recovery.
	hazardHorizon = 75 * time.Second
	maxMigrations = 4 // migrate steps per plan
	// minBatteryFraction excludes weak phones from targets and spare
	// pools, and a host below it is evacuated at once: well above the
	// 0.05 chronic threshold, so the planned move beats the emergency.
	minBatteryFraction = 0.15
)

// Engine turns topology snapshots into plans. It is deterministic: the
// only state carried between plans is the version counter and each
// region's departure-rate EWMA, so a fresh engine given the same snapshot
// always emits the same plan bytes. One engine may serve many regions (the
// controller runs one planning loop per region against a shared instance).
type Engine struct {
	mu      sync.Mutex
	version uint64
	churn   map[string]*churnState // by Snapshot.Region
}

// churnState is one region's departure-rate estimate between plans.
type churnState struct {
	lastDeparts []int64
	lastNow     time.Duration
	departRate  []float64
}

// New creates an engine.
func New() *Engine {
	return &Engine{churn: make(map[string]*churnState)}
}

// move is one pending migrate step before targets are chosen.
type move struct {
	slot   string
	from   simnet.NodeID
	domain int
	evac   bool
	in     time.Duration // hazard horizon for evacuations
	reason string
}

// Plan builds the next placement plan from one snapshot: forecast hazards,
// pack slot groups into domains, synthesise ordered migrate steps
// (evacuations first, most urgent leading), then rebalance the warm spare
// pools. A plan with no steps means the region is already packed and safe.
func (e *Engine) Plan(s Snapshot) *Plan {
	e.mu.Lock()
	defer e.mu.Unlock()

	f := e.runForecast(&s)
	pk := e.packGroups(&s, f)

	var moves []move
	for _, a := range s.Slots {
		if !pk.needsHome[a.Slot] {
			continue
		}
		mv := move{slot: a.Slot, from: a.Phone, domain: pk.domainOf[a.Slot]}
		if h, doomed := f.doomedPhone(&s, string(a.Phone)); doomed {
			mv.evac, mv.in, mv.reason = true, h.In, hazardReason(h)
		} else if s.phone(a.Phone) == nil {
			continue // host unknown: recovery owns this slot right now
		} else {
			mv.reason = "pack:cross-domain"
		}
		moves = append(moves, mv)
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].evac != moves[j].evac {
			return moves[i].evac
		}
		if moves[i].evac && moves[i].in != moves[j].in {
			return moves[i].in < moves[j].in
		}
		return moves[i].slot < moves[j].slot
	})
	if len(moves) > maxMigrations {
		moves = moves[:maxMigrations]
	}

	// Candidate landing spots per domain: warm spares first (that is what
	// the pool is for), then idle phones, strongest battery first.
	candidates := make([][]*Phone, len(s.Domains))
	for i := range s.Phones {
		p := &s.Phones[i]
		if !(p.Idle || p.Spare) || !f.healthy(i, p) {
			continue
		}
		if p.Domain >= 0 && p.Domain < len(candidates) {
			candidates[p.Domain] = append(candidates[p.Domain], p)
		}
	}
	for d := range candidates {
		sort.Slice(candidates[d], func(i, j int) bool {
			a, b := candidates[d][i], candidates[d][j]
			if a.Spare != b.Spare {
				return a.Spare
			}
			if a.BatteryFraction != b.BatteryFraction {
				return a.BatteryFraction > b.BatteryFraction
			}
			return a.ID < b.ID
		})
	}
	used := make(map[simnet.NodeID]bool)
	take := func(d int) *Phone {
		for _, p := range candidates[d] {
			if !used[p.ID] {
				used[p.ID] = true
				return p
			}
		}
		return nil
	}

	e.version++
	plan := &Plan{Region: s.Region, Version: e.version}
	for _, mv := range moves {
		target := take(mv.domain)
		if target == nil && mv.evac {
			// The home domain is full but the host is leaving: landing
			// anywhere beats emergency recovery. Try the other domains,
			// fullest candidate pool first.
			order := make([]int, len(candidates))
			for d := range order {
				order[d] = d
			}
			sort.Slice(order, func(i, j int) bool {
				if len(candidates[order[i]]) != len(candidates[order[j]]) {
					return len(candidates[order[i]]) > len(candidates[order[j]])
				}
				return order[i] < order[j]
			})
			for _, d := range order {
				if d == mv.domain {
					continue
				}
				if target = take(d); target != nil {
					break
				}
			}
		}
		if target == nil {
			continue
		}
		plan.Steps = append(plan.Steps, Step{
			Kind: StepMigrate, Slot: mv.slot, From: mv.from,
			To: target.ID, Domain: target.Domain, Reason: mv.reason,
		})
	}

	plan.Steps = append(plan.Steps, e.planSpares(&s, f, pk, used)...)
	return plan
}
