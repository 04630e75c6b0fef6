// Package clock abstracts time for the MobiStreams runtime.
//
// All durations in the runtime are expressed in simulated time. A Scaled
// clock maps simulated time onto wall-clock time divided by a speedup
// factor, so a five-minute checkpoint period can elapse in milliseconds of
// real time while preserving the relative timing of every component. A
// Manual clock is advanced explicitly and drives deterministic unit tests.
package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// Clock is the time source used by every MobiStreams component. Now reports
// simulated time since the clock's epoch; Sleep blocks for a simulated
// duration; After returns a channel that fires once after a simulated
// duration, delivering the simulated time at which it fired.
//
// Park blocks like Sleep and never returns before its deadline, but may
// hold no CPU for most of the wait and wake a few microseconds late. Park
// only where a late wake costs nothing: a wait that a queued device write
// already hides behind other work.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
	Park(d time.Duration)
	After(d time.Duration) <-chan time.Duration
}

// Scaled is a real-time clock whose simulated time runs Speedup times
// faster than wall time. Speedup = 1 is real time; Speedup = 1000 makes one
// simulated second take one millisecond.
type Scaled struct {
	speedup float64
	epoch   time.Time
}

// NewScaled returns a Scaled clock with the given speedup factor. Speedup
// must be positive; values below 1 slow simulated time down.
func NewScaled(speedup float64) *Scaled {
	if speedup <= 0 {
		panic("clock: speedup must be positive")
	}
	return &Scaled{speedup: speedup, epoch: time.Now()}
}

// Speedup reports the configured speedup factor.
func (s *Scaled) Speedup() float64 { return s.speedup }

// Now returns the simulated time elapsed since the clock was created.
func (s *Scaled) Now() time.Duration {
	return time.Duration(float64(time.Since(s.epoch)) * s.speedup)
}

// Sleep blocks for the simulated duration d (d/speedup of wall time). At
// high speedups the OS timer granularity (~1 ms) would translate into tens
// of simulated seconds of overshoot, so the tail of every sleep is a short
// precision spin against the wall-clock deadline.
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	sleepUntilReal(time.Now().Add(time.Duration(float64(d) / s.speedup)))
}

// Park blocks for the simulated duration d, like Sleep. On Linux a wall wait
// of at least parkFloor blocks on a timer read through the runtime poller
// until parkTail before the deadline, holding no CPU, and spins only that
// tail; shorter waits, and every wait elsewhere, are Sleep.
func (s *Scaled) Park(d time.Duration) {
	if d <= 0 {
		return
	}
	parkUntilReal(time.Now().Add(time.Duration(float64(d) / s.speedup)))
}

// spinWindow is the wall-time tail of a scaled sleep that is spun rather
// than slept, trading a little CPU for timer-granularity-free precision.
// It is kept short: on small machines many goroutines sleep concurrently,
// and long spin tails contend for cores and distort the very timing they
// are trying to sharpen.
const spinWindow = 150 * time.Microsecond

func sleepUntilReal(deadline time.Time) {
	for {
		rem := time.Until(deadline)
		if rem <= 0 {
			return
		}
		if rem > spinWindow {
			time.Sleep(rem - spinWindow)
			continue
		}
		for time.Now().Before(deadline) {
			runtime.Gosched()
		}
		return
	}
}

// After returns a channel that receives the simulated fire time after the
// simulated duration d has elapsed.
func (s *Scaled) After(d time.Duration) <-chan time.Duration {
	ch := make(chan time.Duration, 1)
	if d <= 0 {
		ch <- s.Now()
		return ch
	}
	deadline := time.Now().Add(time.Duration(float64(d) / s.speedup))
	go func() {
		sleepUntilReal(deadline)
		ch <- s.Now()
	}()
	return ch
}

// Manual is a deterministic clock advanced explicitly by tests. Sleepers
// and timers fire when Advance moves simulated time past their deadlines.
// The zero value is ready to use at simulated time zero.
type Manual struct {
	mu     sync.Mutex
	now    time.Duration
	timers timerHeap
}

// NewManual returns a Manual clock starting at simulated time zero.
func NewManual() *Manual { return &Manual{} }

type manualTimer struct {
	at time.Duration
	ch chan time.Duration
}

type timerHeap []*manualTimer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*manualTimer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Now returns the current simulated time.
func (m *Manual) Now() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep blocks until the clock has been advanced by at least d.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// Park is Sleep: a manual clock has no CPU to save.
func (m *Manual) Park(d time.Duration) { m.Sleep(d) }

// After returns a channel that fires when the clock has advanced d past the
// current simulated time.
func (m *Manual) After(d time.Duration) <-chan time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Duration, 1)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	heap.Push(&m.timers, &manualTimer{at: m.now + d, ch: ch})
	return ch
}

// Advance moves simulated time forward by d, firing every timer whose
// deadline is reached, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now + d
	for m.timers.Len() > 0 && m.timers[0].at <= target {
		t := heap.Pop(&m.timers).(*manualTimer)
		m.now = t.at
		t.ch <- t.at
	}
	m.now = target
	m.mu.Unlock()
}

// PendingTimers reports how many timers are waiting to fire. Tests use it
// to synchronise with goroutines that register sleeps.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timers.Len()
}
