package region

import (
	"fmt"
	"sort"
	"time"

	"mobistreams/internal/graph"
	"mobistreams/internal/keyed"
	"mobistreams/internal/node"
	"mobistreams/internal/simnet"
)

// This file is the region half of elastic keyed parallelism: the control
// plane that splits a hot instance's key range onto a dormant instance and
// merges a cold instance back. The protocol keeps the data plane
// exactly-once: the donor is paused from before its state export until
// after the successor partition table is installed, so no tuple executes
// against a key range the donor no longer owns; stragglers queued before
// the flip reroute to the new owner when popped (see internal/node).

// keyRangeShipTimeout bounds, in simulated time, how long a split/merge
// waits for the recipient to acknowledge an imported key range before
// rolling the state back to the donor.
const keyRangeShipTimeout = 10 * time.Second

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

// keyedInstanceNode resolves instance idx of a group to the node currently
// hosting its slot as primary.
func (r *Region) keyedInstanceNode(grp *keyed.Group, idx int) (*node.Node, simnet.NodeID, error) {
	insts := grp.Instances()
	if idx < 0 || idx >= len(insts) {
		return nil, "", fmt.Errorf("region %s: %s instance %d out of range", r.cfg.ID, grp.Logical(), idx)
	}
	slot := r.cfg.Graph.SlotOf(insts[idx])
	r.mu.Lock()
	pid, ok := r.placement[slot]
	n := r.nodes[pid]
	r.mu.Unlock()
	if !ok || n == nil {
		return nil, "", fmt.Errorf("region %s: no primary for keyed slot %s", r.cfg.ID, slot)
	}
	return n, pid, nil
}

// shipRange moves the keyed state in [lo, hi) from the (already paused)
// donor to the recipient and waits for the recipient to acknowledge the
// import. On send failure or timeout the exported state is re-imported at
// the donor, leaving ownership unchanged.
func (r *Region) shipRange(logical string, donor, recip *node.Node, recipID simnet.NodeID, lo, hi string) error {
	genBefore := recip.KeyRangeGen()
	state, err := donor.ExportKeyRange(lo, hi)
	if err != nil {
		return err
	}
	// The rollback re-imports what the donor just exported; there is no
	// further fallback if that fails, and the ship's error is returned.
	rollback := func() { _ = donor.ImportKeyRange(state) }
	if !donor.SendKeyRange(recipID, node.KeyRangeMsg{Logical: logical, Lo: lo, Hi: hi, State: state}) {
		rollback()
		return fmt.Errorf("region %s: key-range ship %s [%s,%s) to %s failed", r.cfg.ID, logical, lo, hi, recipID)
	}
	deadline := r.clk.Now() + keyRangeShipTimeout
	for recip.KeyRangeGen() == genBefore {
		if r.clk.Now() > deadline {
			rollback()
			return fmt.Errorf("region %s: key-range ship %s [%s,%s) to %s timed out", r.cfg.ID, logical, lo, hi, recipID)
		}
		r.clk.Sleep(2 * time.Millisecond)
	}
	return nil
}

// SplitInstance halves a hot instance without the caller naming a cut
// point: the donor is paused, its owned ranges are tried from most to
// fewest resident keys (the range carrying the most state is the best
// guess at where the load lives), and the first splittable one is cut at
// its median resident key, the upper half moving to instance `to`. Errors
// when the donor holds fewer than two keys in every range it owns
// (nothing to split).
func (r *Region) SplitInstance(logical string, donorIdx, to int) error {
	r.splitMu.Lock()
	defer r.splitMu.Unlock()
	grp, ok := r.keyed[logical]
	if !ok {
		return fmt.Errorf("region %s: no keyed group %q", r.cfg.ID, logical)
	}
	if donorIdx == to {
		return fmt.Errorf("region %s: %s split %d into itself", r.cfg.ID, logical, donorIdx)
	}
	tbl := grp.Table()
	donor, _, err := r.keyedInstanceNode(grp, donorIdx)
	if err != nil {
		return err
	}
	recip, recipID, err := r.keyedInstanceNode(grp, to)
	if err != nil {
		return err
	}
	donor.PauseExec()
	defer donor.ResumeExec()
	ranges := tbl.OwnedRanges(donorIdx)
	sort.SliceStable(ranges, func(i, j int) bool {
		return donor.KeyRangeLen(ranges[i][0], ranges[i][1]) > donor.KeyRangeLen(ranges[j][0], ranges[j][1])
	})
	for _, rg := range ranges {
		at, ok := donor.KeyRangeMedian(rg[0], rg[1])
		if !ok {
			continue
		}
		next, moved, err := tbl.Split(at, to)
		if err != nil {
			continue
		}
		if err := r.shipRange(logical, donor, recip, recipID, moved[0], moved[1]); err != nil {
			return err
		}
		grp.Install(next)
		r.jot("keyed.split", "", next.Epoch(), fmt.Sprintf("%s at %q -> %d (median)", logical, at, to))
		return nil
	}
	return fmt.Errorf("region %s: %s instance %d has no splittable range", r.cfg.ID, logical, donorIdx)
}

// MergeKeyRange drains instance `from`: every range it owns moves, state
// included, to instance `to`, and `from` goes dormant (owning nothing, it
// receives no traffic and is available as a future split target). If a
// later range fails to ship, the already-shipped ranges are returned to
// the donor so ownership and state stay consistent.
func (r *Region) MergeKeyRange(logical string, from, to int) error {
	r.splitMu.Lock()
	defer r.splitMu.Unlock()
	grp, ok := r.keyed[logical]
	if !ok {
		return fmt.Errorf("region %s: no keyed group %q", r.cfg.ID, logical)
	}
	tbl := grp.Table()
	next, moved, err := tbl.MergeInto(from, to)
	if err != nil {
		return fmt.Errorf("region %s: merge %s: %w", r.cfg.ID, logical, err)
	}
	donor, donorID, err := r.keyedInstanceNode(grp, from)
	if err != nil {
		return err
	}
	recip, recipID, err := r.keyedInstanceNode(grp, to)
	if err != nil {
		return err
	}
	donor.PauseExec()
	defer donor.ResumeExec()
	for i, rg := range moved {
		if err := r.shipRange(logical, donor, recip, recipID, rg[0], rg[1]); err != nil {
			recip.PauseExec()
			for _, back := range moved[:i] {
				// Best effort: the first ship's error is the one returned.
				_ = r.shipRange(logical, recip, donor, donorID, back[0], back[1])
			}
			recip.ResumeExec()
			return err
		}
	}
	grp.Install(next)
	r.jot("keyed.merge", "", next.Epoch(), fmt.Sprintf("%s %d -> %d", logical, from, to))
	return nil
}
