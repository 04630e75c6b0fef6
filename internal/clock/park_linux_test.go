//go:build linux

package clock

import (
	"sort"
	"testing"
	"time"
)

// TestParkLateness logs how late a parked wait wakes from the poller and how
// late Park returns. Neither is asserted: both depend on how busy the host is.
func TestParkLateness(t *testing.T) {
	const d, rounds = 100 * time.Microsecond, 200
	median := func(wait func()) time.Duration {
		late := make([]time.Duration, rounds)
		for i := range late {
			start := time.Now()
			wait()
			late[i] = time.Since(start) - d
		}
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		return late[rounds/2]
	}
	p := getParker()
	if p == nil {
		t.Skip("no timerfd available")
	}
	wake := median(func() {
		if !p.wait(d) {
			t.Fatal("timerfd wait failed")
		}
	})
	putParker(p)
	c := NewScaled(1)
	ret := median(func() { c.Park(d) })
	t.Logf("%v wait, median of %d: the poller wakes %v late, Park returns %v late", d, rounds, wake, ret)
}
