package clock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestScaledNowAdvances(t *testing.T) {
	c := NewScaled(1000)
	t0 := c.Now()
	time.Sleep(2 * time.Millisecond)
	t1 := c.Now()
	if t1 <= t0 {
		t.Fatalf("Now did not advance: %v -> %v", t0, t1)
	}
	// 2ms of wall time at 1000x is ~2s of simulated time.
	if t1-t0 < 1*time.Second {
		t.Fatalf("expected >=1s simulated elapsed, got %v", t1-t0)
	}
}

func TestScaledSleepScales(t *testing.T) {
	c := NewScaled(1000)
	start := time.Now()
	c.Sleep(1 * time.Second) // should take ~1ms wall time
	if wall := time.Since(start); wall > 200*time.Millisecond {
		t.Fatalf("scaled sleep took too long: %v", wall)
	}
}

func TestScaledSleepNonPositive(t *testing.T) {
	c := NewScaled(10)
	done := make(chan struct{})
	go func() {
		c.Sleep(0)
		c.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("non-positive sleep blocked")
	}
}

// A scaled timer fires, and never before its deadline: neither in
// simulated time nor in wall time.
func TestScaledTimerFiresNoEarlier(t *testing.T) {
	c := NewScaled(1000)
	start, wallStart := c.Now(), time.Now()
	tm := c.NewTimer(500 * time.Millisecond)
	select {
	case at := <-tm.C():
		if at-start < 500*time.Millisecond || time.Since(wallStart) < 500*time.Microsecond {
			t.Fatalf("timer fired at %v simulated, %v wall after arming; want >= 500ms, 500µs", at-start, time.Since(wallStart))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	// Re-armed at speedup 1, on either side of spinWindow.
	tm = NewScaled(1).NewTimer(time.Hour)
	for _, d := range []time.Duration{5 * time.Microsecond, 40 * time.Microsecond, 120 * time.Microsecond, time.Millisecond} {
		for i := 0; i < 20; i++ {
			start := time.Now()
			tm.Reset(d)
			<-tm.C()
			if got := time.Since(start); got < d {
				t.Fatalf("Reset(%v) fired after %v", d, got)
			}
		}
	}
}

func TestScaledTimerImmediate(t *testing.T) {
	c := NewScaled(10)
	select {
	case <-c.NewTimer(0).C():
	default:
		t.Fatal("NewTimer(0) should fire immediately")
	}
}

// A stopped timer never delivers, and while it waits it holds no
// goroutine, so stopping it leaves nothing behind.
func TestScaledTimerStopped(t *testing.T) {
	c := NewScaled(1)
	before := runtime.NumGoroutine()
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = c.NewTimer(2 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+5 {
		t.Fatalf("%d waiting timers hold %d goroutines", len(timers), n-before)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	time.Sleep(5 * time.Millisecond)
	for _, tm := range timers {
		select {
		case <-tm.C():
			t.Fatal("a stopped timer delivered")
		default:
		}
	}
}

// A Reset issued while the previous arming's callback spins its tail never
// lets that stale fire reach C: re-armed far out, the timer stays silent;
// re-armed near, it fires no earlier than the new deadline.
func TestScaledTimerResetDuringSpinTail(t *testing.T) {
	c := NewScaled(1)
	const d = 400 * time.Microsecond
	for i := 0; i < 20; i++ {
		start := time.Now()
		tm := c.NewTimer(d)
		for time.Since(start) < d-spinWindow/2 { // inside the spin tail
		}
		if i%2 == 0 {
			tm.Reset(time.Hour)
			select {
			case <-tm.C():
				t.Fatal("a fire of the retired arming reached C")
			case <-time.After(time.Millisecond):
			}
			tm.Stop()
			continue
		}
		armed := c.Now()
		tm.Reset(d)
		if at := <-tm.C(); at-armed < d {
			t.Fatalf("re-armed timer fired %v after Reset, want >= %v", at-armed, d)
		}
	}
}

func TestNewScaledPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive speedup")
		}
	}()
	NewScaled(0)
}

func TestManualAdvanceFiresTimers(t *testing.T) {
	m := NewManual()
	ch := m.NewTimer(10 * time.Second).C()
	select {
	case <-ch:
		t.Fatal("timer fired before advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired too early")
	default:
	}
	m.Advance(1 * time.Second)
	select {
	case at := <-ch:
		if at != 10*time.Second {
			t.Fatalf("fire time = %v, want 10s", at)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
	if m.Now() != 10*time.Second {
		t.Fatalf("Now = %v, want 10s", m.Now())
	}
}

func TestManualTimersFireInDeadlineOrder(t *testing.T) {
	m := NewManual()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	delays := []time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second}
	for i, d := range delays {
		wg.Add(1)
		i, d := i, d
		ch := m.NewTimer(d).C()
		go func() {
			defer wg.Done()
			<-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
	}
	// Advance one deadline at a time so goroutine scheduling cannot
	// reorder the recorded sequence.
	m.Advance(10 * time.Second)
	waitLen(t, &mu, &order, 1)
	m.Advance(10 * time.Second)
	waitLen(t, &mu, &order, 2)
	m.Advance(10 * time.Second)
	waitLen(t, &mu, &order, 3)
	wg.Wait()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func waitLen(t *testing.T, mu *sync.Mutex, s *[]int, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		l := len(*s)
		mu.Unlock()
		if l >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d entries", n)
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(5 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	for m.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("sleep returned before advance")
	default:
	}
	m.Advance(5 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("sleep did not return after advance")
	}
}

// Neither wait returns before its deadline, on either side of parkFloor and
// of spinWindow.
func TestScaledParkAndSleepNeverEarly(t *testing.T) {
	c := NewScaled(1)
	for _, d := range []time.Duration{5 * time.Microsecond, 40 * time.Microsecond, 120 * time.Microsecond, time.Millisecond} {
		for _, w := range []struct {
			name string
			wait func(time.Duration)
		}{{"Park", c.Park}, {"Sleep", c.Sleep}} {
			for i := 0; i < 20; i++ {
				start := time.Now()
				w.wait(d)
				if got := time.Since(start); got < d {
					t.Fatalf("%s(%v) returned after %v", w.name, d, got)
				}
			}
		}
	}
}

// Goroutines parking at once share the pooled timers; none wakes early.
func TestScaledParkConcurrent(t *testing.T) {
	c := NewScaled(1)
	const d = 40 * time.Microsecond
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				start := time.Now()
				c.Park(d)
				if got := time.Since(start); got < d {
					t.Errorf("Park(%v) returned after %v", d, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestScaledParkAllocatesNothing(t *testing.T) {
	c := NewScaled(1)
	c.Park(40 * time.Microsecond) // the first park opens its timer
	if allocs := testing.AllocsPerRun(50, func() { c.Park(40 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("Park allocates %.1f objects per call, want 0", allocs)
	}
}

func TestManualParkBlocksUntilAdvance(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Park(5 * time.Second)
		close(done)
	}()
	for m.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	m.Advance(5*time.Second - 1)
	select {
	case <-done:
		t.Fatal("park returned before its deadline")
	default:
	}
	m.Advance(1)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("park did not return after advance")
	}
}

func TestManualTimerNonPositive(t *testing.T) {
	m := NewManual()
	select {
	case <-m.NewTimer(0).C():
	default:
		t.Fatal("NewTimer(0) should fire immediately")
	}
}

// A stopped timer leaves the heap, so PendingTimers no longer counts it, and
// never delivers; a re-armed one counts once and fires at its new deadline.
func TestManualTimerStopAndReset(t *testing.T) {
	m := NewManual()
	a, b := m.NewTimer(10*time.Second), m.NewTimer(20*time.Second)
	if n := m.PendingTimers(); n != 2 {
		t.Fatalf("PendingTimers = %d, want 2", n)
	}
	a.Stop()
	if n := m.PendingTimers(); n != 1 {
		t.Fatalf("PendingTimers after Stop = %d, want 1", n)
	}
	b.Reset(5 * time.Second)
	if n := m.PendingTimers(); n != 1 {
		t.Fatalf("PendingTimers after Reset = %d, want 1", n)
	}
	m.Advance(30 * time.Second)
	select {
	case <-a.C():
		t.Fatal("a stopped timer delivered")
	default:
	}
	if at := <-b.C(); at != 5*time.Second {
		t.Fatalf("re-armed timer fired at %v, want 5s", at)
	}
	// A fire nobody read is dropped by the next Reset.
	b.Reset(time.Second)
	m.Advance(time.Second)
	b.Reset(time.Second)
	select {
	case <-b.C():
		t.Fatal("Reset kept the previous arming's fire")
	default:
	}
	if n := m.PendingTimers(); n != 1 {
		t.Fatalf("PendingTimers = %d, want 1", n)
	}
}
