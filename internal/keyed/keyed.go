// Package keyed implements the elastic key-range partition table: the
// shared, lock-free resolver that maps a tuple's partition key to one of
// a logical operator's parallel instances.
//
// The keyspace is partitioned lexicographically into contiguous half-open
// ranges, one per active instance. Range partitioning (rather than
// hashing) is what makes live splits cheap: moving load off a hot
// instance is "hand the upper half of your key range to a cold peer",
// which KeyedState.ExportRange serialises without touching the rest of
// the keyspace.
//
// A table is immutable; a Group publishes the current table through an
// atomic pointer, as a node holds its route table. The
// emit hot path does one atomic load and a binary search over the range
// bounds — no locks, no allocations — while the control plane (the
// region's split/merge, run as the controller's elastic plan steps) swaps
// in successor tables built by table.Split and table.Merge.
package keyed

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// table is one immutable partition of the keyspace across instances.
// Range i covers [bound[i-1], bound[i]) with bound[-1] = "" (the start of
// the keyspace) and bound[len-1] = +inf; owners[i] is the instance index
// serving range i. len(owners) == len(bounds)+1 always.
type table struct {
	epoch  uint64
	bounds []string
	owners []int
}

// NewTable builds the initial table: the keyspace pre-split at the given
// bounds, ranges assigned round-robin across the first `active` instance
// indexes. With active == 1 and no bounds it is the single-instance
// identity table.
func NewTable(bounds []string, active int) (*table, error) {
	if active < 1 {
		return nil, fmt.Errorf("keyed: active instances %d < 1", active)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			return nil, fmt.Errorf("keyed: bounds not strictly increasing at %q", bounds[i])
		}
	}
	if len(bounds) > 0 && bounds[0] == "" {
		return nil, fmt.Errorf("keyed: empty split bound")
	}
	t := &table{epoch: 1, bounds: append([]string(nil), bounds...)}
	t.owners = make([]int, len(bounds)+1)
	for i := range t.owners {
		t.owners[i] = i % active
	}
	return t, nil
}

// Epoch identifies the table generation; each Split/Merge bumps it.
func (t *table) Epoch() uint64 { return t.epoch }

// owner resolves a key to its owning instance index. Lock-free and
// allocation-free: one binary search over the range bounds.
func (t *table) owner(key string) int {
	lo, hi := 0, len(t.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < t.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return t.owners[lo]
}

// Instances returns the set of instance indexes owning at least one
// range, ascending.
func (t *table) Instances() []int {
	seen := map[int]bool{}
	for _, o := range t.owners {
		seen[o] = true
	}
	out := make([]int, 0, len(seen))
	for o := range seen {
		out = append(out, o)
	}
	sort.Ints(out)
	return out
}

// OwnedRanges returns the ranges owned by one instance as (lo, hi) pairs
// in keyspace order; hi == "" means unbounded.
func (t *table) OwnedRanges(inst int) [][2]string {
	var out [][2]string
	for i, o := range t.owners {
		if o != inst {
			continue
		}
		var lo, hi string
		if i > 0 {
			lo = t.bounds[i-1]
		}
		if i < len(t.bounds) {
			hi = t.bounds[i]
		}
		out = append(out, [2]string{lo, hi})
	}
	return out
}

// Split cuts the range containing key at the given bound and assigns the
// upper half [at, oldHi) to instance `to`. It returns the successor table
// plus the moved range. The cut point must fall strictly inside the
// range that currently contains it.
func (t *table) Split(at string, to int) (*table, [2]string, error) {
	if at == "" {
		return nil, [2]string{}, fmt.Errorf("keyed: empty split bound")
	}
	if to < 0 {
		return nil, [2]string{}, fmt.Errorf("keyed: split target %d < 0", to)
	}
	for _, b := range t.bounds {
		if b == at {
			return nil, [2]string{}, fmt.Errorf("keyed: bound %q already exists", at)
		}
	}
	i := 0
	for i < len(t.bounds) && at >= t.bounds[i] {
		i++
	}
	// Range i is [bounds[i-1], bounds[i]) and contains `at` strictly.
	var hi string
	if i < len(t.bounds) {
		hi = t.bounds[i]
	}
	next := &table{
		epoch:  t.epoch + 1,
		bounds: make([]string, 0, len(t.bounds)+1),
		owners: make([]int, 0, len(t.owners)+1),
	}
	next.bounds = append(next.bounds, t.bounds[:i]...)
	next.bounds = append(next.bounds, at)
	next.bounds = append(next.bounds, t.bounds[i:]...)
	next.owners = append(next.owners, t.owners[:i+1]...)
	next.owners = append(next.owners, to)
	next.owners = append(next.owners, t.owners[i+1:]...)
	return next, [2]string{at, hi}, nil
}

// MergeInto reassigns every range owned by instance `from` to instance
// `to` and coalesces adjacent same-owner ranges. It returns the
// successor table plus the ranges that moved (the state `from` must hand
// to `to`).
func (t *table) MergeInto(from, to int) (*table, [][2]string, error) {
	if from == to {
		return nil, nil, fmt.Errorf("keyed: merge instance %d into itself", from)
	}
	moved := t.OwnedRanges(from)
	if len(moved) == 0 {
		return nil, nil, fmt.Errorf("keyed: instance %d owns no range", from)
	}
	owners := make([]int, len(t.owners))
	for i, o := range t.owners {
		if o == from {
			o = to
		}
		owners[i] = o
	}
	next := &table{epoch: t.epoch + 1}
	for i, o := range owners {
		if i > 0 && o == next.owners[len(next.owners)-1] {
			continue // coalesce: drop the bound between same-owner ranges
		}
		if i > 0 {
			next.bounds = append(next.bounds, t.bounds[i-1])
		}
		next.owners = append(next.owners, o)
	}
	return next, moved, nil
}

// String renders the table for logs and tests: "[,b)->0 [b,)->1".
func (t *table) String() string {
	var sb strings.Builder
	for i, o := range t.owners {
		var lo, hi string
		if i > 0 {
			lo = t.bounds[i-1]
		}
		if i < len(t.bounds) {
			hi = t.bounds[i]
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "[%s,%s)->%d", lo, hi, o)
	}
	return sb.String()
}

// Group is one logical operator's elastic identity: its instance IDs and
// the live partition table. The data plane resolves keys through it on
// every emission; the control plane installs successor tables.
type Group struct {
	logical   string
	instances []string
	tbl       atomic.Pointer[table]
}

// NewGroup builds a group over the given instance operator IDs with the
// given initial table.
func NewGroup(logical string, instances []string, tbl *table) (*Group, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("keyed: group %q has no instances", logical)
	}
	for _, o := range tbl.owners {
		if o >= len(instances) {
			return nil, fmt.Errorf("keyed: table owner %d outside %d instances", o, len(instances))
		}
	}
	g := &Group{logical: logical, instances: append([]string(nil), instances...)}
	g.tbl.Store(tbl)
	return g, nil
}

// Logical returns the logical operator ID the group expands.
func (g *Group) Logical() string { return g.logical }

// Instances returns the instance operator IDs (index == instance index).
// The returned slice is shared; callers must not mutate it.
func (g *Group) Instances() []string { return g.instances }

// Table returns the current partition table (an immutable snapshot).
func (g *Group) Table() *table { return g.tbl.Load() }

// Owner resolves a key to the owning instance index against the current
// table — the emit hot path. Lock-free, allocation-free.
func (g *Group) Owner(key string) int { return g.tbl.Load().owner(key) }

// Install publishes a successor table. The caller (region control plane)
// is responsible for having moved the corresponding state first.
func (g *Group) Install(t *table) { g.tbl.Store(t) }
