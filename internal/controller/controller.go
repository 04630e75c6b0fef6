// Package controller implements the global controller (§III): a reliable
// server reachable over cellular that coordinates checkpoints, detects
// failures (pings plus neighbour reports), orchestrates recovery and
// handles mobility. It is control-plane only — no data tuples flow
// through it — and its traffic is a few hundred bytes per event.
//
// Each region has one control loop, its executor goroutine (executor.go):
// it runs the checkpoint and ping rounds and every action that changes the
// region's placement, one after another. An action is a plan of steps;
// recovery and handoff plans are pure functions of a snapshot (plan.go).
package controller

import (
	"slices"
	"strings"
	"sync"
	"time"

	"mobistreams/internal/clock"
	"mobistreams/internal/node"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
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
	// Adaptive turns on each region's adaptive loop: its executor runs the
	// placement engine's plan every scheduleTick (proactive; reactive
	// recovery still backstops what the plan misses) and the elastic
	// decision's split or merge every elasticTick.
	Adaptive bool
}

// scheduleTick is the placement engine's planning period.
const scheduleTick = 5 * time.Second

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
}

// managed is the controller's per-region state.
type managed struct {
	r *region.Region

	mu         sync.Mutex
	version    uint64
	committed  uint64
	pendingVer uint64
	// progress holds each slot's reports for pendingVer: checkpointed
	// (bit 0) and persisted (bit 1); pendingHolders the holders its
	// persisted reports named. At commit they become holders: per slot,
	// the phones holding committed's complete blob chain (dist-n).
	progress       map[string]uint8
	pendingHolders map[string][]simnet.NodeID
	holders        map[string][]simnet.NodeID
	catchUpDone    map[uint64]int
	// routes is the region's placement, and the one record of it: each
	// slot's primary and rep-2 standby endpoint, as the table last
	// installed on the nodes (place). idle is the idle pool in the order
	// plans take phones from it; known are the phones the record has
	// seen, so a phone recruited since joins idle when the pool is next
	// read.
	routes *node.Routes
	idle   []simnet.NodeID
	known  map[simnet.NodeID]bool
	// failedSeen maps each phone a ping or report showed failed to the
	// version committed then. Recovery plans know no other failures.
	failedSeen map[simnet.NodeID]uint64
	// pendingFail are failed phones no recovery has taken yet, the first
	// noted at failSince.
	pendingFail []simnet.NodeID
	failSince   time.Duration
	dead        bool
	recoveries  int
	departures  int
	migrations  int
	// spares are idle phones the placement planner holds as warm spares;
	// warmed marks phones that have operator code; epoch is the last
	// replay's. Only the executor goroutine touches these, the cooldown
	// ledger and the elastic decision's memory, so none needs mu.
	epoch       uint64
	spares      map[simnet.NodeID]bool
	warmed      map[simnet.NodeID]bool
	cool        cooldowns
	elastic     *elastic
	planCommits int
	planAborts  int
	// noMobility journals depart.no_mobility once per region, for
	// departures under schemes with no mobility story.
	noMobility sync.Once

	// jobs queue work for the executor; restored carries restore reports
	// to it.
	jobs     chan func()
	restored chan node.Report
}

// Controller is the global coordinator.
type Controller struct {
	cfg    Config
	clk    clock.Clock
	ep     *simnet.Endpoint
	engine *placement.Engine // one for every region: plan versions count up across them

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
		ep:      simnet.NewEndpoint(selfID, simnet.DefaultInbox),
		engine:  placement.New(),
		regions: make(map[string]*managed),
		stopCh:  make(chan struct{}),
	}
	cfg.Cell.AttachRated(c.ep, 1e9, 1e9)
	return c
}

// ID returns the controller's network identity.
func (c *Controller) ID() simnet.NodeID { return selfID }

// AddRegion registers a region; the controller starts coordinating it when
// Start runs. A region added after Start is never pinged or checkpointed.
func (c *Controller) AddRegion(r *region.Region) {
	routes, idle := r.Founding()
	m := &managed{
		r:           r,
		routes:      routes,
		idle:        idle,
		known:       make(map[simnet.NodeID]bool),
		catchUpDone: make(map[uint64]int),
		failedSeen:  make(map[simnet.NodeID]uint64),
		spares:      make(map[simnet.NodeID]bool),
		warmed:      make(map[simnet.NodeID]bool),
		cool:        make(cooldowns),
		elastic:     newElastic(),
		jobs:        make(chan func(), 256),
		restored:    make(chan node.Report, 64),
	}
	for _, id := range r.Members() {
		m.known[id] = true
	}
	c.mu.Lock()
	c.regions[r.ID()] = m
	c.mu.Unlock()
}

// Start launches the report loop and each region's executor.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wg.Add(1 + len(c.regions))
	go c.reportLoop()
	for _, m := range c.regions {
		go c.execLoop(m)
	}
}

// Stop shuts the controller down; a report sent to it then fails at once.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.wg.Wait()
	c.ep.Seal()
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
	return c.lookup(name)
}

func (c *Controller) lookup(regionID string) *managed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.regions[regionID]
}

// read returns f of a region's state under its lock, or zero for an
// unknown region.
func read[T any](c *Controller, regionID string, f func(*managed) T) T {
	m := c.lookup(regionID)
	if m == nil {
		var zero T
		return zero
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return f(m)
}

// Committed reports a region's latest committed checkpoint version.
func (c *Controller) Committed(regionID string) uint64 {
	return read(c, regionID, func(m *managed) uint64 { return m.committed })
}

// Recoveries reports how many recoveries a region has undergone.
func (c *Controller) Recoveries(regionID string) int {
	return read(c, regionID, func(m *managed) int { return m.recoveries })
}

// RegionDead reports whether a region has been stopped and bypassed.
func (c *Controller) RegionDead(regionID string) bool {
	return read(c, regionID, func(m *managed) bool { return m.dead }) || c.lookup(regionID) == nil
}

// fanOut sends cmds[i] to to[i], or one command to every phone, all at
// once: a send blocks for latency plus airtime, so each has a goroutine.
// It returns when the last has landed, with the phones it could not reach
// (a crashed phone's endpoint is sealed). Answers go to reply, if any.
func (c *Controller) fanOut(to []simnet.NodeID, reply chan simnet.Message, cmds ...node.Command) []simnet.NodeID {
	lost := make([]simnet.NodeID, len(to))
	var wg sync.WaitGroup
	wg.Add(len(to))
	send := func(i int, cmd any) {
		defer wg.Done()
		if c.cfg.Cell.Request(selfID, to[i], simnet.ClassControl, 64, cmd, reply) != nil {
			lost[i] = to[i]
		}
	}
	var cmd any // one command is boxed once for every phone
	for i := range to {
		if i == 0 || len(cmds) > 1 {
			cmd = cmds[i]
		}
		go send(i, cmd)
	}
	wg.Wait()
	return slices.DeleteFunc(lost, func(id simnet.NodeID) bool { return id == "" })
}

// ask sends cmd to phones at once and reports whether every one of them
// answered within one timeout.
func (c *Controller) ask(to []simnet.NodeID, cmd node.Command, timeout time.Duration) bool {
	return len(c.answers(to, timeout, cmd)) == len(to)
}

// answers sends cmds to phones at once, as fanOut does, and returns by
// phone the answers that came within one timeout. It stops waiting once
// every phone it could reach has answered.
func (c *Controller) answers(to []simnet.NodeID, timeout time.Duration, cmds ...node.Command) map[simnet.NodeID]node.Answer {
	reply := make(chan simnet.Message, len(to))
	want := len(to) - len(c.fanOut(to, reply, cmds...))
	got := make(map[simnet.NodeID]node.Answer, want)
	t := c.clk.NewTimer(timeout)
	defer t.Stop()
	for len(got) < want {
		select {
		case m := <-reply:
			got[m.From], _ = m.Payload.(node.Answer)
		case <-t.C():
			return got
		case <-c.stopCh:
			return got
		}
	}
	return got
}

// TriggerCheckpoint runs one checkpoint round on the region's executor,
// so only after Start, and returns its version (tests and benchmarks drive
// checkpoints explicitly through this); after Stop, or when dead, 0.
func (c *Controller) TriggerCheckpoint(regionID string) uint64 {
	return call(c, regionID, c.startCheckpoint)
}

// noted reports whether a phone was noted failed. Caller holds m.mu.
func (m *managed) noted(id simnet.NodeID) bool {
	_, ok := m.failedSeen[id]
	return ok
}

func (m *managed) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// startCheckpoint starts a checkpoint round (§III-B step 1) and returns
// its version, or 0 for a dead region.
func (c *Controller) startCheckpoint(m *managed) uint64 {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return 0
	}
	m.version++
	v := m.version
	m.pendingVer = v
	m.progress = make(map[string]uint8)
	m.pendingHolders = make(map[string][]simnet.NodeID)
	m.mu.Unlock()

	var op node.CommandOp
	var slots []string
	switch scheme := m.r.Scheme(); {
	case scheme.UsesTokens():
		op, slots = node.CmdToken, m.r.Graph().SourceSlots()
	case scheme.PeriodicSnapshot():
		op, slots = node.CmdSnapshot, m.r.Graph().Slots()
	}
	var to []simnet.NodeID
	for _, slot := range slots {
		if pid, ok := m.host(slot); ok {
			to = append(to, pid)
		}
	}
	c.fanOut(to, nil, node.Command{Op: op, Version: v})
	return v
}

// pinged is one ping of a round: a slot and the host it was sent to.
type pinged struct {
	slot string
	host simnet.NodeID
}

// startPings pings each active slot's host (§III-D, extended from the
// paper's source-only pings) in one fan-out, so a round holds the executor
// for one send, not one per host; the answers share one channel and one
// deadline. A host the ping cannot reach is noted failed at once.
func (c *Controller) startPings(m *managed, round []pinged) ([]pinged, chan simnet.Message) {
	var hosts []simnet.NodeID
	var pings []node.Command
	for _, slot := range m.r.Graph().Slots() {
		if host, ok := m.host(slot); ok {
			round = append(round, pinged{slot, host})
			hosts = append(hosts, host)
			pings = append(pings, node.Command{Op: node.CmdPing, Slot: slot})
		}
	}
	reply := make(chan simnet.Message, len(hosts))
	for _, host := range c.fanOut(hosts, reply, pings...) {
		c.noteFailure(m, host)
	}
	return round, reply
}

// judgePings settles a round at its deadline. Only a slot's actual host
// answers a ping that carries it, so a dead phone and a healthy one that
// lost the slot are both noted failed, unless a job moved the slot since.
func (c *Controller) judgePings(m *managed, round []pinged, reply chan simnet.Message) {
	for len(reply) > 0 {
		from := (<-reply).From
		if i := slices.IndexFunc(round, func(p pinged) bool { return p.host == from }); i >= 0 {
			round[i].host = ""
		}
	}
	for _, p := range round {
		if cur, ok := m.host(p.slot); ok && cur == p.host {
			c.noteFailure(m, p.host)
		}
	}
}
