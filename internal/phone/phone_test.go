package phone

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBatteryDrainsToDeath(t *testing.T) {
	p := New("a", Config{BatteryJoules: 9}) // 0.9 W busy
	if p.Dead() {
		t.Fatal("new phone dead")
	}
	if !p.drainCPU(5 * time.Second) {
		t.Fatal("died too early")
	}
	if got := p.BatteryFraction(); got < 0.45 || got > 0.55 {
		t.Fatalf("battery = %v, want ~0.5", got)
	}
	if p.drainCPU(6 * time.Second) {
		t.Fatal("should be dead after 9.9 J of 9 J")
	}
	if !p.Dead() {
		t.Fatal("Dead() false after depletion")
	}
	if p.BatteryFraction() != 0 {
		t.Fatal("battery fraction should clamp to 0")
	}
}

func TestTxDrain(t *testing.T) {
	p := New("a", Config{BatteryJoules: 10})
	p.DrainTx(1 << 20) // ~1MB -> ~5J
	if f := p.BatteryFraction(); f > 0.55 || f < 0.40 {
		t.Fatalf("battery after 1MB tx = %v", f)
	}
}

func TestChronicThreshold(t *testing.T) {
	p := New("a", Config{BatteryJoules: 90})
	if p.BatteryChronic() {
		t.Fatal("full battery chronic")
	}
	p.drainCPU(96 * time.Second)
	if !p.BatteryChronic() {
		t.Fatalf("4%% battery not chronic (frac=%v)", p.BatteryFraction())
	}
}

func TestKillAndRevive(t *testing.T) {
	p := New("a", Config{})
	p.Kill()
	if !p.Dead() {
		t.Fatal("kill did not work")
	}
	p.Revive(0.8)
	if p.Dead() {
		t.Fatal("revive did not work")
	}
	if f := p.BatteryFraction(); f < 0.79 || f > 0.81 {
		t.Fatalf("revived battery = %v", f)
	}
}

func TestPositionAndRange(t *testing.T) {
	p := New("a", Config{})
	p.SetPosition(Position{X: 3, Y: 4})
	if !p.InRange(Position{}, 5.01) {
		t.Fatal("should be in 5m range")
	}
	if p.InRange(Position{}, 4.99) {
		t.Fatal("should be out of 5m range")
	}
}

func TestFlashWriteTime(t *testing.T) {
	p := New("a", Config{})
	if got := p.FlashWriteTime(10e6); got != time.Second {
		t.Fatalf("write time = %v, want 1s", got)
	}
}

func TestCPUBusyAccumulates(t *testing.T) {
	p := New("a", Config{})
	p.drainCPU(time.Second)
	p.drainCPU(2 * time.Second)
	if p.CPUBusy() != 3*time.Second {
		t.Fatalf("busy = %v", p.CPUBusy())
	}
}

// Property: battery fraction is monotonically non-increasing under drains.
func TestBatteryMonotoneProperty(t *testing.T) {
	f := func(drains []uint16) bool {
		p := New("x", Config{BatteryJoules: 1000})
		prev := p.BatteryFraction()
		for _, d := range drains {
			p.drainCPU(time.Duration(d) * time.Millisecond)
			p.DrainTx(int(d))
			cur := p.BatteryFraction()
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distance is symmetric and zero iff identical.
func TestDistanceProperty(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Position{X: float64(ax), Y: float64(ay)}
		b := Position{X: float64(bx), Y: float64(by)}
		if a.DistanceSq(b) != b.DistanceSq(a) {
			return false
		}
		if a == b {
			return a.DistanceSq(b) == 0
		}
		return a.DistanceSq(b) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRxChargesReceiveEnergy(t *testing.T) {
	p := New("x", Config{BatteryJoules: 100})
	// rxJoulesPerMB is 3: receiving 10 MB costs 30 J.
	if !p.DrainRx(10e6) {
		t.Fatal("phone died receiving 10 MB on a 100 J battery")
	}
	if got := p.EnergyJoules(); got != 70 {
		t.Fatalf("energy = %v, want 70", got)
	}
	// Receive is cheaper than transmit (3 vs 5 J/MB).
	q := New("y", Config{BatteryJoules: 100})
	q.DrainTx(10e6)
	if q.EnergyJoules() >= p.EnergyJoules() {
		t.Fatalf("tx (%v J left) should cost more than rx (%v J left)", q.EnergyJoules(), p.EnergyJoules())
	}
	// Draining through zero kills the phone.
	if p.DrainRx(30e6) {
		t.Fatal("phone survived draining past empty")
	}
	if !p.Dead() {
		t.Fatal("phone not dead after rx drain to zero")
	}
}

func TestVelocityRoundTrip(t *testing.T) {
	p := New("x", Config{})
	if vx, vy := p.Velocity(); vx != 0 || vy != 0 {
		t.Fatalf("fresh phone velocity = (%v, %v), want (0, 0)", vx, vy)
	}
	p.SetVelocity(3, -4)
	if vx, vy := p.Velocity(); vx != 3 || vy != -4 {
		t.Fatalf("velocity = (%v, %v), want (3, -4)", vx, vy)
	}
}

// CPUBusy reports cumulative busy CPU time.
func (p *Phone) CPUBusy() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cpuBusy
}

// InRange reports whether the phone is within radius metres of centre —
// the region-membership test used at startup and by departure detection.
func (p *Phone) InRange(centre Position, radius float64) bool {
	return p.Position().DistanceSq(centre) <= radius*radius
}
