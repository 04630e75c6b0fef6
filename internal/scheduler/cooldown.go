package scheduler

import (
	"sync"
	"time"
)

// cooldowns is the shared per-slot action ledger: every policy that
// disrupts a slot — a planned migration (noted by the plan executor) or an
// elastic split/merge touching the slot (ElasticPolicy) — notes the slot
// here, and every policy checks it before planning the next disruption.
// One ledger shared across policies closes the blind spot where each
// tracked its own cooldown and a just-split instance could be migrated in
// the same breath (or vice versa). Keys are scoped by region so one ledger
// can serve many regions.
type cooldowns struct {
	mu   sync.Mutex
	last map[string]time.Duration
}

// newCooldowns creates an empty ledger.
func newCooldowns() *cooldowns {
	return &cooldowns{last: make(map[string]time.Duration)}
}

func cooldownKey(scope, slot string) string { return scope + "\x00" + slot }

// note records a disruptive action on a slot at simulated time now.
func (c *cooldowns) note(scope, slot string, now time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.last[cooldownKey(scope, slot)] = now
	c.mu.Unlock()
}

// ready reports whether the slot is outside the window since its last
// noted action. A nil ledger is always ready.
func (c *cooldowns) ready(scope, slot string, now, window time.Duration) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	at, ok := c.last[cooldownKey(scope, slot)]
	c.mu.Unlock()
	return !ok || now-at >= window
}
