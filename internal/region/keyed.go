package region

import (
	"fmt"

	"mobistreams/internal/graph"
	"mobistreams/internal/keyed"
)

// This file holds each elastic keyed group's partition table: the region
// builds and seeds it, and every node routes by the one shared object. A
// split or merge runs on the donor instance's phone (see internal/node),
// which installs the successor table.

// defaultKeyedGroup seeds a group's runtime partition table: the keyspace
// split at even single-byte bounds across the first Parallelism instances
// (one range each), the remaining instances dormant. Parallelism 1 yields
// the single-range identity table.
func defaultKeyedGroup(gs graph.KeyedGroupSpec) (*keyed.Group, error) {
	var bounds []string
	for i := 1; i < gs.Parallelism; i++ {
		bounds = append(bounds, string([]byte{byte(i * 256 / gs.Parallelism)}))
	}
	tbl, err := keyed.NewTable(bounds, gs.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("keyed group %s: %w", gs.Logical, err)
	}
	grp, err := keyed.NewGroup(gs.Logical, gs.Instances, tbl)
	if err != nil {
		return nil, fmt.Errorf("keyed group %s: %w", gs.Logical, err)
	}
	return grp, nil
}

// KeyedGroup returns the live elastic group for a logical keyed operator.
func (r *Region) KeyedGroup(logical string) (*keyed.Group, bool) {
	grp, ok := r.keyed[logical]
	return grp, ok
}

// SeedKeyRanges replaces a group's initial partition bounds (len(bounds)+1
// ranges assigned round-robin across the initially active instances).
// Call it before traffic flows: reseeding after keyed state has
// accumulated strands that state at the former owners.
func (r *Region) SeedKeyRanges(logical string, bounds []string) error {
	grp, ok := r.keyed[logical]
	if !ok {
		return fmt.Errorf("region %s: no keyed group %q", r.cfg.ID, logical)
	}
	gs, _ := r.cfg.Graph.KeyedGroup(logical)
	tbl, err := keyed.NewTable(bounds, gs.Parallelism)
	if err != nil {
		return fmt.Errorf("region %s: seed %s: %w", r.cfg.ID, logical, err)
	}
	grp.Install(tbl)
	return nil
}
