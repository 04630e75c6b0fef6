package placement

import "sort"

// groupSlots partitions the assigned slots into connected components of the
// (undirected) slot communication graph: the groups that should share one
// channel domain, since every edge inside a group that crosses domains
// charges two cells of airtime per transfer. Slots with no edges form
// singleton groups. Deterministic: components are discovered by scanning
// slots in sorted order and their members stay sorted.
func groupSlots(slots []Assignment, edges []Edge) [][]string {
	adj := make(map[string][]string, len(slots))
	known := make(map[string]bool, len(slots))
	for _, a := range slots {
		known[a.Slot] = true
	}
	for _, e := range edges {
		if known[e.From] && known[e.To] {
			adj[e.From] = append(adj[e.From], e.To)
			adj[e.To] = append(adj[e.To], e.From)
		}
	}
	seen := make(map[string]bool, len(slots))
	var groups [][]string
	for _, a := range slots {
		if seen[a.Slot] {
			continue
		}
		var comp []string
		queue := []string{a.Slot}
		seen[a.Slot] = true
		for len(queue) > 0 {
			slot := queue[0]
			queue = queue[1:]
			comp = append(comp, slot)
			next := append([]string(nil), adj[slot]...)
			sort.Strings(next)
			for _, n := range next {
				if !seen[n] {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
		sort.Strings(comp)
		groups = append(groups, comp)
	}
	return groups
}

// packing is the pack engine's output: each slot's target domain, and
// whether the slot needs a fresh phone there (its current host is either in
// the wrong domain or predicted to leave).
type packing struct {
	domainOf  map[string]int
	needsHome map[string]bool
	planned   []int // slots routed to each domain this round
}

// packGroups assigns every slot group a home domain, packing each group
// whole into a single domain before spilling (jobtree's pack-to-empty):
// a group only straddles domains when no single domain has the capacity to
// hold it. Among domains that fit, prefer the one already hosting most of
// the group (fewest moves), then the one with the least traffic planned
// onto it this round (spreads independent groups across channels), then
// the most free capacity, then the lowest ID.
func (e *Engine) packGroups(s *Snapshot, f *forecast) packing {
	p := packing{
		domainOf:  make(map[string]int, len(s.Slots)),
		needsHome: make(map[string]bool, len(s.Slots)),
	}
	nd := len(s.Domains)
	if nd == 0 {
		return p
	}

	// Free capacity per domain: healthy idle or spare phones that can
	// receive a slot.
	avail := make([]int, nd)
	for i := range s.Phones {
		ph := &s.Phones[i]
		if (ph.Idle || ph.Spare) && f.healthy(i, ph) && ph.Domain >= 0 && ph.Domain < nd {
			avail[ph.Domain]++
		}
	}

	// Current healthy placement per slot: domain, or -1 when the slot's
	// host is missing, unhealthy or forecast to leave.
	curDomain := make(map[string]int, len(s.Slots))
	for _, a := range s.Slots {
		curDomain[a.Slot] = -1
		for i := range s.Phones {
			ph := &s.Phones[i]
			if ph.ID != a.Phone {
				continue
			}
			if _, bad := f.doomed[i]; !bad && ph.Domain >= 0 && ph.Domain < nd {
				curDomain[a.Slot] = ph.Domain
			}
			break
		}
	}

	planned := make([]int, nd)
	p.planned = planned
	for _, group := range groupSlots(s.Slots, s.Edges) {
		inDom := make([]int, nd)
		for _, slot := range group {
			if d := curDomain[slot]; d >= 0 {
				inDom[d]++
			}
		}
		best := -1
		for d := 0; d < nd; d++ {
			if len(group)-inDom[d] > avail[d] {
				continue // does not fit whole
			}
			if best < 0 {
				best = d
				continue
			}
			switch {
			case inDom[d] != inDom[best]:
				if inDom[d] > inDom[best] {
					best = d
				}
			case planned[d] != planned[best]:
				if planned[d] < planned[best] {
					best = d
				}
			case avail[d] != avail[best]:
				if avail[d] > avail[best] {
					best = d
				}
			}
		}
		if best >= 0 {
			for _, slot := range group {
				p.domainOf[slot] = best
				planned[best]++
				if curDomain[slot] != best {
					p.needsHome[slot] = true
					avail[best]--
				}
			}
			continue
		}

		// Spill: no single domain holds the group. Fill domains in order
		// of (most of the group already there, most capacity, lowest ID),
		// keeping incumbent slots in place first so the spill moves as
		// few slots as possible.
		order := make([]int, nd)
		for d := range order {
			order[d] = d
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if inDom[a] != inDom[b] {
				return inDom[a] > inDom[b]
			}
			if avail[a] != avail[b] {
				return avail[a] > avail[b]
			}
			return a < b
		})
		assigned := make(map[string]bool, len(group))
		for _, d := range order {
			// Incumbents stay free of charge.
			for _, slot := range group {
				if !assigned[slot] && curDomain[slot] == d {
					p.domainOf[slot] = d
					planned[d]++
					assigned[slot] = true
				}
			}
			for _, slot := range group {
				if assigned[slot] || avail[d] == 0 {
					continue
				}
				p.domainOf[slot] = d
				p.needsHome[slot] = true
				planned[d]++
				avail[d]--
				assigned[slot] = true
			}
		}
		for _, slot := range group {
			if !assigned[slot] {
				// Region out of capacity: leave the slot where it is.
				d := curDomain[slot]
				if d < 0 {
					d = 0
				}
				p.domainOf[slot] = d
			}
		}
	}
	return p
}
