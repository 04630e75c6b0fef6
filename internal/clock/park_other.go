//go:build !linux

package clock

import "time"

// parkUntilReal spins like Sleep: the parked wait needs Linux's timerfd.
func parkUntilReal(deadline time.Time) { sleepUntilReal(deadline) }
