// Package controller implements the global controller (§III): a reliable
// server reachable over cellular that coordinates checkpoints, detects
// failures (pings plus neighbour reports), orchestrates recovery and
// handles mobility. It is control-plane only — no data tuples flow
// through it — and its traffic is a few hundred bytes per event.
package controller

import (
	"strings"
	"sync"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/node"
	"mobistreams/internal/region"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
)

// Config parameterises the controller. Defaults follow §IV: 5-minute
// checkpoint period, 30-second pings, 10-second timeout.
type Config struct {
	Clock            clock.Clock
	Cell             *simnet.Cellular
	CheckpointPeriod time.Duration
	PingInterval     time.Duration
	PingTimeout      time.Duration
	// DebounceWindow batches burst failure reports into one recovery.
	DebounceWindow time.Duration
	// Planner, when non-nil, enables adaptive placement: every
	// ScheduleTick the controller polls region telemetry, snapshots the
	// channel topology, asks the planner for a versioned plan, and
	// executes its migrate / reserve / release steps through the live
	// migration machinery, journaling the plan lifecycle (proactive; the
	// paper's reactive recovery still backstops anything the plan misses).
	Planner *scheduler.Planner
	// ScheduleTick is the telemetry/planning period (default 5 s).
	ScheduleTick time.Duration
	Logf         func(string, ...interface{})
}

// codeBytes is the operator code size shipped to a phone at placement and
// recovery time.
const codeBytes = 256 << 10

// selfID is the controller's network identity on the cellular network.
const selfID simnet.NodeID = "controller"

func (c *Config) applyDefaults() {
	if c.CheckpointPeriod <= 0 {
		c.CheckpointPeriod = 5 * time.Minute
	}
	if c.PingInterval <= 0 {
		c.PingInterval = 30 * time.Second
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 10 * time.Second
	}
	if c.DebounceWindow <= 0 {
		c.DebounceWindow = 2 * time.Second
	}
	if c.ScheduleTick <= 0 {
		c.ScheduleTick = 5 * time.Second
	}
}

// managed is the controller's per-region state.
type managed struct {
	r *region.Region

	mu           sync.Mutex
	version      uint64
	committed    uint64
	epoch        uint64
	pendingVer   uint64
	checkpointed map[string]bool
	persisted    map[string]bool
	restored     map[simnet.NodeID]uint64
	handoffDone  map[simnet.NodeID]bool
	catchUpDone  map[uint64]int
	failedSeen   map[simnet.NodeID]bool
	pendingFail  []simnet.NodeID
	recovering   bool
	dead         bool
	recoveries   int
	departures   int
	migrations   int
	// spares are idle phones held claimed as warm spares by the placement
	// planner; warmed marks phones that already received operator code,
	// so migrating onto them skips the code ship.
	spares      map[simnet.NodeID]bool
	warmed      map[simnet.NodeID]bool
	planCommits int
	planAborts  int
	// migrating holds off checkpoint rounds while a live migration has a
	// slot vacated: a token/snapshot command sent to the mid-flight slot
	// would never be answered and the round could never commit.
	migrating bool
	// noMobilityWarned guards the once-per-region log line for departures
	// under schemes with no mobility story.
	noMobilityWarned bool
}

// Controller is the global coordinator.
type Controller struct {
	cfg  Config
	clk  clock.Clock
	ep   *simnet.Endpoint
	logf func(string, ...interface{})

	mu      sync.Mutex
	regions map[string]*managed

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New creates a controller attached to the cellular network with
// effectively unconstrained wired bandwidth.
func New(cfg Config) *Controller {
	cfg.applyDefaults()
	c := &Controller{
		cfg:     cfg,
		clk:     cfg.Clock,
		ep:      simnet.NewEndpoint(selfID, 1<<15),
		regions: make(map[string]*managed),
		stopCh:  make(chan struct{}),
	}
	c.logf = cfg.Logf
	if c.logf == nil {
		c.logf = func(string, ...interface{}) {}
	}
	cfg.Cell.AttachRated(c.ep, 1e9, 1e9)
	return c
}

// ID returns the controller's network identity.
func (c *Controller) ID() simnet.NodeID { return selfID }

// AddRegion registers a region; the controller starts coordinating it when
// Start runs. A region added after Start is never pinged or checkpointed.
func (c *Controller) AddRegion(r *region.Region) {
	m := &managed{
		r:            r,
		checkpointed: make(map[string]bool),
		persisted:    make(map[string]bool),
		restored:     make(map[simnet.NodeID]uint64),
		handoffDone:  make(map[simnet.NodeID]bool),
		catchUpDone:  make(map[uint64]int),
		failedSeen:   make(map[simnet.NodeID]bool),
		spares:       make(map[simnet.NodeID]bool),
		warmed:       make(map[simnet.NodeID]bool),
	}
	c.mu.Lock()
	c.regions[r.ID()] = m
	c.mu.Unlock()
}

// Start launches the controller loops.
func (c *Controller) Start() {
	c.wg.Add(1)
	go c.reportLoop()
	c.mu.Lock()
	regions := make([]*managed, 0, len(c.regions))
	for _, m := range c.regions {
		regions = append(regions, m)
	}
	c.mu.Unlock()
	for _, m := range regions {
		if m.r.Scheme().Checkpoints() {
			c.wg.Add(1)
			go c.checkpointLoop(m)
		}
		c.wg.Add(1)
		go c.pingLoop(m)
		if c.cfg.Planner != nil {
			c.wg.Add(1)
			go c.scheduleLoop(m)
		}
	}
}

// Stop shuts the controller down.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
}

func (c *Controller) stopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}

// regionFor maps a phone ID ("region/p3" or "region/p3#sb#n2") to its
// managed region.
func (c *Controller) regionFor(id simnet.NodeID) *managed {
	name := string(id)
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.regions[name]
}

// Region returns the managed region's runtime by name (tests, system
// wiring).
func (c *Controller) Region(name string) *region.Region {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.regions[name]; m != nil {
		return m.r
	}
	return nil
}

// Committed reports a region's latest committed checkpoint version.
func (c *Controller) Committed(regionID string) uint64 {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.committed
}

// Recoveries reports how many recoveries a region has undergone.
func (c *Controller) Recoveries(regionID string) int {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

// RegionDead reports whether a region has been stopped and bypassed.
func (c *Controller) RegionDead(regionID string) bool {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// send issues a command to a phone over cellular, fire-and-forget.
func (c *Controller) send(to simnet.NodeID, cmd node.Command) {
	if err := c.cfg.Cell.Send(selfID, to, simnet.ClassControl, 64, cmd); err != nil {
		c.logf("controller: send %v to %s: %v", cmd.Op, to, err)
	}
}

// request issues a command and waits for the acknowledgement, returning
// false on timeout or send failure.
func (c *Controller) request(to simnet.NodeID, cmd node.Command, timeout time.Duration) bool {
	reply := make(chan simnet.Message, 1)
	if c.cfg.Cell.Request(selfID, to, simnet.ClassControl, 64, cmd, reply) != nil {
		return false
	}
	t := c.clk.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-reply:
		return true
	case <-t.C():
		return false
	case <-c.stopCh:
		return false
	}
}

// shipCode models transferring operator code to a phone (§III-A).
func (c *Controller) shipCode(to simnet.NodeID) {
	c.cfg.Cell.Send(selfID, to, simnet.ClassCode, codeBytes, nil)
}

// TriggerCheckpoint starts one checkpoint round immediately and returns its
// version (tests and benchmarks drive checkpoints explicitly through this).
func (c *Controller) TriggerCheckpoint(regionID string) uint64 {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0
	}
	return c.startCheckpoint(m)
}

// checkpointLoop runs the periodic checkpoint rounds (§III-B step 1).
func (c *Controller) checkpointLoop(m *managed) {
	defer c.wg.Done()
	t := c.clk.NewTimer(c.cfg.CheckpointPeriod)
	defer t.Stop()
	for ; ; t.Reset(c.cfg.CheckpointPeriod) {
		select {
		case <-t.C():
			if m.isDead() {
				return
			}
			c.startCheckpoint(m)
		case <-c.stopCh:
			return
		}
	}
}

func (m *managed) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

func (m *managed) isMigrating() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrating
}

func (c *Controller) startCheckpoint(m *managed) uint64 {
	m.mu.Lock()
	if m.recovering || m.dead || m.migrating {
		// A migration in flight has a slot vacated at its source: the
		// round could never complete. Skip; the periodic loop retries.
		m.mu.Unlock()
		return 0
	}
	m.version++
	v := m.version
	m.pendingVer = v
	m.checkpointed = make(map[string]bool)
	m.persisted = make(map[string]bool)
	m.mu.Unlock()

	scheme := m.r.Scheme()
	if scheme.UsesTokens() {
		for _, slot := range m.r.Graph().SourceSlots() {
			if pid, ok := m.r.Placement(slot); ok {
				c.send(pid, node.Command{Op: node.CmdToken, Version: v})
			}
		}
	} else if scheme.PeriodicSnapshot() {
		for _, slot := range m.r.ActiveSlots() {
			if pid, ok := m.r.Placement(slot); ok {
				c.send(pid, node.Command{Op: node.CmdSnapshot, Version: v})
			}
		}
	}
	return v
}

// pingLoop probes every active slot's host (§III-D, extended from the
// paper's source-only pings): the ping carries the slot, and only the
// phone actually hosting it answers — so both a dead phone and a healthy
// phone that lost the slot (stranded placement after a failed migration)
// miss the timeout and trigger recovery. Rounds are skipped while a
// migration is mid-flight, when one vacated-but-healthy source is the
// expected transient state.
func (c *Controller) pingLoop(m *managed) {
	defer c.wg.Done()
	t := c.clk.NewTimer(c.cfg.PingInterval)
	defer t.Stop()
	for ; ; t.Reset(c.cfg.PingInterval) {
		select {
		case <-t.C():
			if m.isDead() {
				return
			}
			if m.isMigrating() {
				continue
			}
			for _, slot := range m.r.ActiveSlots() {
				pid, ok := m.r.Placement(slot)
				if !ok {
					continue
				}
				if !c.request(pid, node.Command{Op: node.CmdPing, Slot: slot}, c.cfg.PingTimeout) {
					if c.stopped() {
						return // Stop cut the wait short; the phone may be fine
					}
					// Re-resolve before reporting: a migration that
					// started mid-round legitimately moved the slot.
					if cur, ok := m.r.Placement(slot); ok && cur == pid {
						c.noteFailure(m, pid)
					}
				}
			}
		case <-c.stopCh:
			return
		}
	}
}
