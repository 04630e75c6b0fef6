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
	"sync/atomic"
	"time"
)

// Clock is the time source used by every MobiStreams component. Now reports
// simulated time since the clock's epoch; Sleep blocks for a simulated
// duration; NewTimer arms a Timer that fires once after a simulated
// duration.
//
// Park blocks like Sleep and never returns before its deadline, but may
// hold no CPU for most of the wait and wake a few microseconds late. Park
// only where a late wake costs nothing: a wait that a queued device write
// already hides behind other work.
type Clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
	Park(d time.Duration)
	NewTimer(d time.Duration) Timer
}

// Timer is a single-shot wait a caller can cut short. C delivers the
// simulated fire time once per arming; a non-positive duration fires at
// once. Reset re-arms the timer and Stop disarms it: once either returns, C
// holds no fire of an earlier arming and will never receive one, so a wait
// left early through another select case leaves nothing behind.
type Timer interface {
	C() <-chan time.Duration
	Reset(d time.Duration)
	Stop()
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

// NewTimer returns a timer armed to fire after the simulated duration d.
// While it waits it holds a runtime timer set spinWindow before the wall
// deadline and no goroutine; the runtime timer's callback spins the tail
// like Sleep, so it fires as precisely as Sleep returns.
func (s *Scaled) NewTimer(d time.Duration) Timer {
	t := &scaledTimer{s: s, c: make(chan time.Duration, 1)}
	t.Reset(d)
	return t
}

type scaledTimer struct {
	s *Scaled
	// c never blocks a send: each arming sends at most once, and every
	// arming and disarming first drains it.
	c chan time.Duration
	// gen counts armings and disarmings: a callback delivers only while
	// gen still names the arming it started spinning for.
	gen atomic.Uint64

	mu       sync.Mutex
	rt       *time.Timer // runs fire; made at the first positive arming
	armed    bool
	deadline time.Time // the wall deadline of the current arming
}

func (t *scaledTimer) C() <-chan time.Duration { return t.c }

func (t *scaledTimer) Reset(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.disarmLocked()
	if d <= 0 {
		t.c <- t.s.Now()
		return
	}
	wall := time.Duration(float64(d) / t.s.speedup)
	t.deadline, t.armed = time.Now().Add(wall), true
	if t.rt == nil {
		t.rt = time.AfterFunc(wall-spinWindow, t.fire)
	} else {
		t.rt.Reset(wall - spinWindow)
	}
}

func (t *scaledTimer) Stop() {
	t.mu.Lock()
	t.disarmLocked()
	t.mu.Unlock()
}

// disarmLocked retires the current arming and drops an undelivered fire.
func (t *scaledTimer) disarmLocked() {
	t.gen.Add(1)
	t.armed = false
	if t.rt != nil {
		t.rt.Stop()
	}
	select {
	case <-t.c:
	default:
	}
}

// fire runs spinWindow before the wall deadline, spins the rest and
// delivers, unless a Reset or Stop retires the arming first. A callback
// that finds the deadline further off was overtaken by a Reset to a later
// deadline, whose own callback is already scheduled.
func (t *scaledTimer) fire() {
	t.mu.Lock()
	gen, deadline, armed := t.gen.Load(), t.deadline, t.armed
	t.mu.Unlock()
	if !armed || time.Until(deadline) > spinWindow {
		return
	}
	for t.gen.Load() == gen && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	t.mu.Lock()
	if t.armed && t.gen.Load() == gen {
		t.armed = false
		t.c <- t.s.Now()
	}
	t.mu.Unlock()
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
	m     *Manual
	at    time.Duration
	c     chan time.Duration
	index int // position in m.timers; -1 while not armed
}

type timerHeap []*manualTimer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *timerHeap) Push(x interface{}) {
	t := x.(*manualTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.index = -1
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
	<-m.NewTimer(d).C()
}

// Park is Sleep: a manual clock has no CPU to save.
func (m *Manual) Park(d time.Duration) { m.Sleep(d) }

// NewTimer returns a timer that fires when the clock has advanced d past the
// current simulated time.
func (m *Manual) NewTimer(d time.Duration) Timer {
	t := &manualTimer{m: m, c: make(chan time.Duration, 1), index: -1}
	t.Reset(d)
	return t
}

func (t *manualTimer) C() <-chan time.Duration { return t.c }

func (t *manualTimer) Reset(d time.Duration) {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	t.stopLocked()
	if d <= 0 {
		t.c <- t.m.now
		return
	}
	t.at = t.m.now + d
	heap.Push(&t.m.timers, t)
}

func (t *manualTimer) Stop() {
	t.m.mu.Lock()
	t.stopLocked()
	t.m.mu.Unlock()
}

// stopLocked takes the timer off the heap and drops an undelivered fire.
func (t *manualTimer) stopLocked() {
	if t.index >= 0 {
		heap.Remove(&t.m.timers, t.index)
	}
	select {
	case <-t.c:
	default:
	}
}

// Advance moves simulated time forward by d, firing every timer whose
// deadline is reached, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.now + d
	for m.timers.Len() > 0 && m.timers[0].at <= target {
		t := heap.Pop(&m.timers).(*manualTimer)
		m.now = t.at
		t.c <- t.at
	}
	m.now = target
	m.mu.Unlock()
}

// PendingTimers reports how many timers are armed and waiting to fire; a
// stopped timer does not count. Tests use it to synchronise with goroutines
// that register sleeps.
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.timers.Len()
}
