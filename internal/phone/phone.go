// Package phone models the smartphone device: battery, GPS position, and
// flash storage speed. Battery depletion and mobility are the paper's two
// dominant causes of node failure and departure (§I, §III-E).
package phone

import (
	"sync"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/simnet"
)

// Position is a GPS fix in metres within a flat local frame.
type Position struct {
	X, Y float64
}

// DistanceSq returns the squared distance between two positions.
func (p Position) DistanceSq(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Energy and storage rates of an iPhone-3GS-class device.
const (
	// cpuWatts is power drawn per second of busy CPU.
	cpuWatts = 0.9
	// txJoulesPerMB is radio energy per megabyte sent.
	txJoulesPerMB = 5
	// rxJoulesPerMB is radio energy per megabyte received: listening is
	// cheaper than transmitting but far from free, and a phone that mostly
	// consumes broadcasts drains real battery doing so.
	rxJoulesPerMB = 3
	// flashWriteBps is local storage write bandwidth.
	flashWriteBps = 10e6
)

// Config parameterises a phone. Zero values get sensible defaults for an
// iPhone-3GS-class device.
type Config struct {
	// BatteryJoules is the usable battery energy (default 20 kJ ~ a
	// well-worn 1200 mAh pack).
	BatteryJoules float64
	// VirtualCPUTime anchors CPU reservations at the simulated time work
	// became runnable (see ExecFrom) instead of at the caller's
	// wall-derived clock reading. Service rates then hold exactly in
	// simulated time regardless of host scheduling — the right model for
	// utilisation-sensitive experiments (the elastic bench's saturation
	// physics). Off by default: virtual anchoring lets a stalled executor
	// catch up through its backlog in zero additional simulated time,
	// which compresses in-flight windows and changes the loss profile
	// that wall-paced failure scenarios (churn) are seeded against.
	VirtualCPUTime bool
}

func (c *Config) applyDefaults() {
	if c.BatteryJoules <= 0 {
		c.BatteryJoules = 20e3
	}
}

// Phone is one device. It is safe for concurrent use.
type Phone struct {
	ID  simnet.NodeID
	cfg Config

	mu           sync.Mutex
	energy       float64
	pos          Position
	velX, velY   float64 // metres per simulated second
	dead         bool
	cpuBusy      time.Duration // cumulative busy CPU time
	cpuBusyUntil time.Duration // CPU reservation horizon (shared core)
}

// New creates a phone at the origin with a full battery.
func New(id simnet.NodeID, cfg Config) *Phone {
	cfg.applyDefaults()
	return &Phone{ID: id, cfg: cfg, energy: cfg.BatteryJoules}
}

// ExecFrom runs d of CPU work on the phone's single core: concurrent
// callers (a primary node and a rep-2 standby sharing the device) serialise
// through a busy-until reservation, so two 7-second jobs take 14 seconds of
// simulated time, not 7. It returns false when the battery dies. The work
// became runnable at simulated time ready (a queued tuple's enqueue time).
// With Config.VirtualCPUTime set, the
// reservation anchors at the later of the core's busy horizon and ready
// rather than at the caller's wall-derived clock reading: a goroutine woken
// late by the OS scheduler charges only d per item instead of d plus its
// wake latency, which on a loaded host would otherwise inflate every
// service time and silently lower the simulated capacity; if the virtual
// horizon already passed, the work is charged without sleeping at all and
// the executor catches up at wall speed. Without the flag, ready is
// ignored and the reservation anchors at the clock's reading.
func (p *Phone) ExecFrom(clk clock.Clock, ready, d time.Duration) bool {
	if d <= 0 {
		return !p.Dead()
	}
	now := clk.Now()
	if !p.cfg.VirtualCPUTime || ready <= 0 || ready > now {
		ready = now
	}
	p.mu.Lock()
	start := p.cpuBusyUntil
	if start < ready {
		start = ready
	}
	p.cpuBusyUntil = start + d
	end := p.cpuBusyUntil
	p.mu.Unlock()
	if wait := end - now; wait > 0 {
		clk.Sleep(wait)
	}
	return p.drainCPU(d)
}

// drainCPU charges d of busy CPU against the battery and returns whether
// the phone is still alive.
func (p *Phone) drainCPU(d time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cpuBusy += d
	p.energy -= d.Seconds() * cpuWatts
	if p.energy <= 0 {
		p.dead = true
	}
	return !p.dead
}

// DrainTx charges radio energy for sending n bytes.
func (p *Phone) DrainTx(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.energy -= float64(n) / 1e6 * txJoulesPerMB
	if p.energy <= 0 {
		p.dead = true
	}
	return !p.dead
}

// DrainRx charges radio energy for receiving n bytes.
func (p *Phone) DrainRx(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.energy -= float64(n) / 1e6 * rxJoulesPerMB
	if p.energy <= 0 {
		p.dead = true
	}
	return !p.dead
}

// EnergyJoules reports the remaining battery energy (telemetry; the
// placement planner extrapolates time-to-death from successive readings).
func (p *Phone) EnergyJoules() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.energy < 0 {
		return 0
	}
	return p.energy
}

// BatteryFraction reports remaining battery in [0,1].
func (p *Phone) BatteryFraction() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.energy / p.cfg.BatteryJoules
	if f < 0 {
		return 0
	}
	return f
}

// BatteryChronic reports whether battery is at the chronic level where the
// phone proactively reports itself to the controller (§III-D).
func (p *Phone) BatteryChronic() bool { return p.BatteryFraction() < 0.05 }

// Kill marks the phone failed (battery pulled, crash).
func (p *Phone) Kill() {
	p.mu.Lock()
	p.dead = true
	p.mu.Unlock()
}

// Revive resets a phone to alive with the given battery fraction, modelling
// a recharged phone re-entering service.
func (p *Phone) Revive(batteryFraction float64) {
	p.mu.Lock()
	p.dead = false
	p.energy = batteryFraction * p.cfg.BatteryJoules
	p.mu.Unlock()
}

// Dead reports whether the phone has failed.
func (p *Phone) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// SetPosition updates the GPS fix.
func (p *Phone) SetPosition(pos Position) {
	p.mu.Lock()
	p.pos = pos
	p.mu.Unlock()
}

// Position returns the GPS fix.
func (p *Phone) Position() Position {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pos
}

// SetVelocity records the phone's ground velocity in metres per simulated
// second. The placement planner extrapolates the GPS trajectory toward the WiFi
// range boundary from position plus velocity (§III-E's departure feed,
// turned predictive).
func (p *Phone) SetVelocity(vx, vy float64) {
	p.mu.Lock()
	p.velX, p.velY = vx, vy
	p.mu.Unlock()
}

// Velocity returns the last recorded ground velocity (m/s).
func (p *Phone) Velocity() (vx, vy float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.velX, p.velY
}

// FlashWriteTime returns the simulated time to write n bytes to flash.
func (p *Phone) FlashWriteTime(n int) time.Duration {
	return time.Duration(float64(n) / flashWriteBps * float64(time.Second))
}

// FlashReadTime returns the simulated time to read n bytes from flash
// (reads run about twice as fast as writes on this class of device).
func (p *Phone) FlashReadTime(n int) time.Duration {
	return time.Duration(float64(n) / (2 * flashWriteBps) * float64(time.Second))
}
