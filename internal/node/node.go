// Package node implements the per-phone runtime: the dispatcher that sorts
// incoming network messages, the executor that processes tuples through the
// phone's operators with calibrated service times, token alignment and
// checkpointing, and the control handler for controller commands, recovery
// and mobility.
//
// Concurrency model: one dispatcher goroutine drains the endpoint inbox,
// one executor goroutine owns the operators and all stream state, one
// control goroutine serves commands and peer requests, and one persist
// goroutine disseminates checkpoint blobs so the executor never blocks on
// checkpoint I/O (the paper's asynchronous checkpointing, §III-B).
//
// The steady-state tuple path — queue pop, operator execution, fan-out,
// cross-slot send — runs against a compiled pipeline (see pipeline.go) and
// an epoch-stamped route cache (see routecache.go). Queues, routes, the
// batcher's per-edge state and the route cache are all indexed by the
// graph's dense slot and operator IDs, so the path consults no map; after
// the single queue handshake under n.mu, the only lock it takes is the
// batcher's.
package node

import (
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/keyed"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
	"mobistreams/internal/tuple"
)

// resolver maps slots to the phones currently hosting them. The region
// owns the placement and updates it during recovery and mobility; nodes
// resolve on every send (through the epoch-stamped route cache when the
// resolver also implements epochResolver).
type resolver interface {
	Primary(slot string) (simnet.NodeID, bool)
	Standby(slot string) (simnet.NodeID, bool)
}

// Config assembles a node.
type Config struct {
	// ID is the node's network identity; defaults to Phone.ID. A rep-2
	// standby has its own identity on a shared physical phone.
	ID       simnet.NodeID
	Phone    *phone.Phone
	Slot     string // "" for idle nodes
	Role     Role
	Registry operator.Registry
	OpIDs    []string // operators on this slot, topological order
	Graph    *graph.Graph
	Scheme   ft.Scheme
	Clock    clock.Clock
	WiFi     *simnet.WiFi
	Cell     *simnet.Cellular
	Endpoint *simnet.Endpoint
	Store    *storage.Store
	Resolver resolver
	// ControllerID is the controller's network identity for reports.
	ControllerID simnet.NodeID
	// Peers returns the current region members (minus this phone) for
	// broadcast dissemination queries.
	Peers func() []simnet.NodeID
	// DistPeers are the unicast persistence targets under dist-n.
	DistPeers []simnet.NodeID
	// Broadcast configures the dissemination protocol. Its BlockSize also
	// bounds a source-preservation run (unset: every run is one tuple).
	Broadcast broadcast.Config
	// PreserveBroadcast replicates admitted source input to all peers
	// (UDP best-effort, one datagram per run) so replay logs survive
	// source failures.
	PreserveBroadcast bool
	// Keyed maps each keyed group's logical operator ID to the region's
	// shared partition-table group. Compiled pipelines dispatch keyed
	// emissions through it; a control-plane table install flips routing
	// on every node at once.
	Keyed map[string]*keyed.Group
	// QoS is the output-path quality of service: the end-to-end latency
	// budget driving adaptive flush deadlines, and the bounds on
	// edge-level tuple batching on the emission hot path.
	QoS QoS
	// Checkpoint configures the snapshot pipeline (incremental-async by
	// default; FullOnly restores synchronous full-blob checkpointing).
	Checkpoint CheckpointConfig
	// Obs, when non-nil, wires the node into the region's observability
	// registry: per-operator latency and per-edge wait/depth histograms
	// (resolved into the compiled pipeline — the hot path holds plain
	// pointers), batch sizes per flush, checkpoint pause and blob bytes,
	// the tuple tracer, and the lifecycle journal. Nil keeps every
	// instrumentation site a single nil check.
	Obs *obs.Registry
	// OnSinkOutput receives externally published results.
	OnSinkOutput func(*tuple.Tuple)
	// OnIngest admits an inter-region tuple arriving over cellular into
	// the region (set by the region to its Ingest method).
	OnIngest func(srcOp string, value interface{}, size int, kind string)
}

// Node is one phone's runtime.
type Node struct {
	cfg   Config
	id    simnet.NodeID
	clk   clock.Clock
	bcfg  broadcast.Config
	recv  *broadcast.Receiver
	graph *graph.Graph

	// pipe is the compiled data plane for the hosted slot (nil when
	// idle), swapped atomically on configuration, restore and handoff.
	pipe atomic.Pointer[pipeline]
	// routes is the epoch-stamped Primary/Standby cache (routecache.go).
	routes   atomic.Pointer[routeSnapshot]
	epochRes epochResolver // non-nil when the resolver supports epochs

	// life is the slot lifecycle state (lifecycle.go), stored only under
	// mu; the emission gates read it without a lock.
	life atomic.Pointer[lifecycle]

	mu   sync.Mutex
	cond *sync.Cond
	// execParked is set while the executor waits at a tuple boundary with
	// nothing it may run, and before it starts.
	execParked bool
	slot       string
	opIDs      []string
	// qList holds the upstream queues in pipeline-upstream order (nil when
	// idle): an arrival's origin slot resolves to its index through the
	// hosted pipeline's upIdx table, which changes only together with it.
	qList []*upQueue
	rr    int
	cmds  []execCmd
	// ingest is the slab external input and replayed input are copied
	// into; guarded by mu like the external queue they join.
	ingest tuple.Slab

	align          *checkpoint.Alignment
	alignUpstreams []string
	replaySeen     map[uint64]map[graph.SlotID]bool
	logVersion     atomic.Uint64
	hwAt           map[uint64]map[string]uint64

	unreachable     map[simnet.NodeID]bool
	urgentReported  map[graph.SlotID]bool
	chronicReported bool
	// timerArmed/timerWakeAt track the earliest outstanding timer-wake
	// goroutine that unparks the executor for a pending operator timer
	// (under mu); an earlier registration re-arms with its own wake.
	timerArmed  bool
	timerWakeAt time.Duration
	// sendGen invalidates in-flight deliveries across a restore: output
	// emitted before a rewind must not land after it (the rewound outSeq
	// reuses those edge sequences, and a late stale delivery would poison
	// the receiver's dedup state against the re-emissions). Read
	// atomically by retry loops; bumped under mu by installBlobLocked.
	sendGen   uint64
	extFwdSeq atomic.Uint64
	// preBuf holds stream arrivals before activation, up to preBufLimit;
	// preDrops counts the arrivals dropped past it, journaled once when
	// the slot activates.
	preBuf   []streamMsg
	preDrops int
	// processed counts executed data tuples (telemetry: the elastic
	// decision's per-instance tuple rate). Read atomically off the executor.
	processed uint64
	// keyRange is the latest key-range arrival (split/merge state): the
	// region polls it to learn that a shipped range has landed, or failed
	// to, before flipping the partition table or rolling back.
	keyRange atomic.Pointer[keyRangeLanding]

	// obsReg/tracer/journal mirror cfg.Obs and batchSizes is its batch
	// family (all nil when obs is off).
	// curTrace is the trace context of the tuple the executor is
	// currently processing — executor-owned ambient state, so the
	// compiled emit path picks it up without threading a parameter
	// through the operator contract. Zero between tuples.
	obsReg     *obs.Registry
	tracer     *obs.Tracer
	journal    *obs.Journal
	batchSizes *obs.Histogram
	curTrace   obs.SpanCtx

	// curReady is the enqueue time of the tuple the executor is currently
	// processing — ambient like curTrace, consumed by runOp to anchor CPU
	// reservations (Phone.ExecFrom) at the moment the work became runnable
	// rather than at the executor's wake time. Zero between tuples.
	curReady time.Duration
	// opWeight is the item's latency observation weight (0: untimed), set
	// like curTrace; 1 between items, so timer firings are all timed.
	opWeight uint64

	// runs are the executor's scratch for its preservation pipeline, one
	// buffer per committed block, and flashDone is when the flash device
	// finishes the last log write queued on it. Executor-owned: popRunLocked
	// runs under mu, but only ever on the executor goroutine.
	runs      [2][]queued
	flashDone time.Duration
	// runSlab is the unused tail of the array preserved runs' tuple lists
	// are carved from (carveRunTs); executor-owned like runs.
	runSlab []*tuple.Tuple

	// ckptBase is the version the next delta checkpoint patches against
	// (0 = none: first checkpoint, or freshly restored); ckptChainLen
	// counts the delta links since the last full base blob. Written by
	// the executor's checkpoint path and installBlobLocked under mu.
	ckptBase     uint64
	ckptChainLen int

	batch *batcher

	ctrl      chan simnet.Message
	rxGrams   []simnet.Datagram // dispatchLoop's buffer for unpacking bursts
	persistCh chan *checkpoint.Blob
	stopCh    chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New assembles a node; Start launches it.
func New(cfg Config) *Node {
	id := cfg.ID
	if id == "" {
		id = cfg.Phone.ID
	}
	n := &Node{
		cfg:            cfg,
		id:             id,
		clk:            cfg.Clock,
		bcfg:           cfg.Broadcast,
		graph:          cfg.Graph,
		recv:           broadcast.NewReceiver(cfg.Store),
		replaySeen:     make(map[uint64]map[graph.SlotID]bool),
		hwAt:           make(map[uint64]map[string]uint64),
		unreachable:    make(map[simnet.NodeID]bool),
		urgentReported: make(map[graph.SlotID]bool),
		persistCh:      make(chan *checkpoint.Blob, 64),
		stopCh:         make(chan struct{}),
		opWeight:       1,
		execParked:     true,
	}
	role := cfg.Role
	if cfg.Slot == "" {
		role = RoleIdle
	}
	n.life.Store(&initial[role])
	if cfg.Obs != nil {
		n.obsReg = cfg.Obs
		n.tracer = cfg.Obs.Tracer
		n.journal = cfg.Obs.Journal
		n.batchSizes = cfg.Obs.Hist(obs.BatchMsgs, "")
	}
	if er, ok := cfg.Resolver.(epochResolver); ok {
		n.epochRes = er
	}
	n.cond = sync.NewCond(&n.mu)
	n.batch = newBatcher(n, cfg.QoS)
	if cfg.Slot != "" {
		n.configureSlot(cfg.Slot, cfg.OpIDs)
	}
	return n
}

// configureSlot installs the slot's operators and queue topology, compiling
// the slot's pipeline and swapping it in atomically. Callers hold no lock
// (construction) or n.mu (activation of an idle node).
func (n *Node) configureSlot(slot string, opIDs []string) {
	n.slot = slot
	n.opIDs = append([]string(nil), opIDs...)
	ops := make([]operator.Operator, 0, len(opIDs))
	for _, id := range opIDs {
		ops = append(ops, n.cfg.Registry.New(id))
	}
	p := n.compilePipeline(slot, n.opIDs, ops)
	n.qList = nil
	ordered := n.cfg.Scheme.PreservesAtEdges()
	for _, up := range p.upstreams {
		// Pseudo-upstreams bypass edge-sequence dedup: items are pushed
		// directly, never enqueue()d.
		q := &upQueue{}
		if up != graph.ExternalSlot && up != graph.RerouteSlot {
			q = newStreamQueue(ordered)
		}
		q.depth = n.obsReg.Hist(obs.EdgeDepth, n.graph.SlotName(up)+"->"+slot)
		n.qList = append(n.qList, q)
	}
	// Alignment excludes the reroute pseudo-upstream: no token ever
	// arrives on it, so counting it would stall every checkpoint round.
	n.alignUpstreams = make([]string, 0, len(p.upstreams))
	for _, up := range p.upstreams {
		if up != graph.RerouteSlot {
			n.alignUpstreams = append(n.alignUpstreams, n.graph.SlotName(up))
		}
	}
	n.align = checkpoint.NewAlignment(n.alignUpstreams)
	n.batch.setBudget(n.slotBudgetShare(slot), minFlush)
	n.batch.setDowns(p.downs)
	n.pipe.Store(p)
}

// Slot returns the slot the node currently hosts ("" when idle).
func (n *Node) Slot() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.slot
}

// Backlog reports the queued-but-unprocessed stream items across all
// upstream queues, including parked out-of-order arrivals (telemetry).
func (n *Node) Backlog() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, q := range n.qList {
		total += q.len() + len(q.park)
	}
	return total
}

// Processed reports the cumulative count of executed data tuples.
func (n *Node) Processed() uint64 { return atomic.LoadUint64(&n.processed) }

// jot emits one lifecycle event to the region's journal. Nil-safe: with
// obs off the journal is nil and Emit is a no-op.
func (n *Node) jot(kind string, version uint64, detail string) {
	if n.journal == nil {
		return
	}
	slot := ""
	if p := n.pipe.Load(); p != nil {
		slot = p.slot
	}
	n.journal.Emit(obs.Event{
		At: int64(n.clk.Now()), Kind: kind, Node: string(n.id),
		Slot: slot, Version: version, Detail: detail,
	})
}

// report sends a node report to the controller over cellular.
func (n *Node) report(r Report) {
	if n.cfg.Cell == nil || n.cfg.ControllerID == "" {
		return
	}
	r.Phone = n.id
	if r.Slot == "" {
		n.mu.Lock()
		r.Slot = n.slot
		n.mu.Unlock()
	}
	// Reports are best effort: the controller's pings still find a node
	// that failed without reporting.
	_ = n.cfg.Cell.Send(n.id, n.cfg.ControllerID, simnet.ClassControl, reportWireBytes, r)
}

// reportWireBytes is the modelled size of a control report; controller
// traffic is under 2 KB/s in the paper's applications (§III).
const reportWireBytes = 96
