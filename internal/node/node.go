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
	"strconv"
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
	"mobistreams/internal/seqset"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
	"mobistreams/internal/tuple"
)

// Role is a node's current function in the region.
type Role int

const (
	// RolePrimary runs operators and emits output.
	RolePrimary Role = iota
	// RoleStandby runs operators but suppresses output (rep-2 replica).
	RoleStandby
	// RoleIdle runs no operators; it stores checkpoint data and stands
	// by as a replacement (node F in Fig. 4).
	RoleIdle
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

// queued is one item waiting on an upstream queue. fromOp/toOp are graph
// IDs (graph.NoOp for markers and external input). tc carries the tuple's
// sampled trace context (zero = untraced); at is the enqueue timestamp —
// it feeds the edge's queue-wait histogram and anchors the executor's CPU
// reservation for the item (zero on paths that don't stamp it, e.g. replay,
// where the reservation falls back to the executor's wake time). Like
// streamMsg it stays within the 64 bytes the compiler copies inline, and
// moves by pointer between queue, executor and handler.
type queued struct {
	fromOp  graph.OpID
	toOp    graph.OpID
	edgeSeq uint64
	item    tuple.Item
	tc      obs.SpanCtx
	at      time.Duration
}

// upQueue is the FIFO from one upstream slot (or the external world).
//
// Under edge-preserving schemes (local/dist-n) the queue delivers strictly
// in edge-sequence order: recovery resends must not be overtaken by fresh
// emissions, so out-of-order arrivals park until the gap fills. The park
// has an overflow valve — an unfillable gap (edge log lost to a second
// failure) degrades to tuple loss rather than deadlock.
//
// Unordered queues (schemes without edge preservation) only suppress
// duplicates, within a bounded window of recently seen sequences: a late
// arrival that simply overtook its neighbours on the network is still
// legitimate input and must not be dropped.
type upQueue struct {
	items   []queued
	head    int
	stalled bool
	lastEnq uint64
	ordered bool
	// park is a min-heap on edgeSeq of out-of-order arrivals waiting for
	// their gap to fill; parked tracks membership for duplicate drops.
	park   []queued
	parked map[uint64]struct{}
	// recent is the unordered queues' dedup window: the dedupWindow
	// sequences ending at the highest one accepted. A repeat inside it is a
	// duplicate; a sequence that has fallen below it is accepted, and
	// caught by sink-side dedup if it was one. Held by value, so the
	// enqueue path never allocates (ordered queues dedup by watermark and
	// park membership instead, and leave it empty).
	recent seqset.Window
	// depth is the edge's queue-depth histogram (nil when obs is off),
	// observed once per delivery, after its last accepted enqueue (an
	// external queue's ingests are sampled by depthTicks, under mu).
	depth      *obs.Histogram
	depthTicks sampler
}

// newStreamQueue builds an upstream stream queue.
func newStreamQueue(ordered bool) *upQueue { return &upQueue{ordered: ordered} }

// parkLimit bounds out-of-order buffering before the gap is abandoned.
const parkLimit = 1024

// dedupWindow bounds how far below the highest accepted sequence an
// unordered queue remembers sequences for duplicate suppression.
const dedupWindow = seqset.WindowSize

// enqueue applies the queue's ordering discipline to a sequenced arrival
// and reports whether anything became deliverable.
func (q *upQueue) enqueue(it *queued) bool {
	if !q.ordered {
		if !q.recent.Admit(it.edgeSeq) {
			return false // duplicate
		}
		if it.edgeSeq > q.lastEnq {
			q.lastEnq = it.edgeSeq
		}
		q.push(it)
		return true
	}
	if it.edgeSeq <= q.lastEnq {
		return false // duplicate below the delivery watermark
	}
	if it.edgeSeq == q.lastEnq+1 {
		q.lastEnq = it.edgeSeq
		q.push(it)
		for len(q.park) > 0 && q.park[0].edgeSeq == q.lastEnq+1 {
			q.lastEnq++
			q.parkPop(q.slot())
		}
		return true
	}
	if _, dup := q.parked[it.edgeSeq]; dup {
		return false
	}
	q.parkPush(it)
	if len(q.park) > parkLimit {
		q.flushPark()
		return true
	}
	return false
}

// parkPush inserts an out-of-order arrival into the park heap.
func (q *upQueue) parkPush(it *queued) {
	if q.parked == nil {
		q.parked = make(map[uint64]struct{})
	}
	q.parked[it.edgeSeq] = struct{}{}
	q.park = append(q.park, *it)
	for i := len(q.park) - 1; i > 0; {
		p := (i - 1) / 2
		if q.park[p].edgeSeq <= q.park[i].edgeSeq {
			break
		}
		q.park[p], q.park[i] = q.park[i], q.park[p]
		i = p
	}
}

// parkPop moves the lowest-sequence parked item into dst.
func (q *upQueue) parkPop(dst *queued) {
	*dst = q.park[0]
	delete(q.parked, dst.edgeSeq)
	last := len(q.park) - 1
	q.park[0] = q.park[last]
	q.park[last] = queued{}
	q.park = q.park[:last]
	for i := 0; ; {
		s := i
		if l := 2*i + 1; l < len(q.park) && q.park[l].edgeSeq < q.park[s].edgeSeq {
			s = l
		}
		if r := 2*i + 2; r < len(q.park) && q.park[r].edgeSeq < q.park[s].edgeSeq {
			s = r
		}
		if s == i {
			break
		}
		q.park[i], q.park[s] = q.park[s], q.park[i]
		i = s
	}
}

// flushPark abandons an unfillable gap: parked items are delivered in
// sequence order and the watermark jumps past them. Heap pops make the
// whole flush O(n log n) in the park size.
func (q *upQueue) flushPark() {
	for len(q.park) > 0 {
		it := q.slot()
		q.parkPop(it)
		q.lastEnq = it.edgeSeq
	}
}

func (q *upQueue) len() int { return len(q.items) - q.head }

func (q *upQueue) push(it *queued) { *q.slot() = *it }

// slot appends a zero item to the queue and returns it for the caller to
// fill in place.
func (q *upQueue) slot() *queued {
	q.items = append(q.items, queued{})
	return &q.items[len(q.items)-1]
}

// pop moves the head item into dst.
func (q *upQueue) pop(dst *queued) {
	*dst = q.items[q.head]
	q.items[q.head] = queued{}
	q.head++
	if q.head > 256 && q.head*2 >= len(q.items) {
		// Compact in place: slide the live suffix down and truncate, so
		// the drain path reuses one backing array instead of allocating.
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = queued{}
		}
		q.items = q.items[:n]
		q.head = 0
	}
}

// reset drops the queue's contents and empties its dedup window.
func (q *upQueue) reset() {
	q.items = nil
	q.head = 0
	q.stalled = false
	q.park = nil
	q.parked = nil
	q.recent.Reset()
}

// noStamp stands for "no current clock reading" where the executor passes
// one around (clocks never report a negative time).
const noStamp = time.Duration(-1)

// timeEvery is how sparsely the executor times items: one in every
// timeEvery a queue delivers, observed with weight timeEvery (ObserveN).
const timeEvery = 8

// sampler counts one queue's items and picks those the executor times: one
// per block of timeEvery, the first block's first, at a position a
// golden-ratio hash of the block number spreads evenly, so a cost recurring
// every k items (a batch flush) is sampled at its true rate. Per queue, or
// round-robin could hand every pick to one queue.
type sampler uint32

// due reports whether the queue's next item is picked.
func (s *sampler) due() bool {
	n := uint32(*s)
	return n%timeEvery == (n/timeEvery*2654435761)>>24%timeEvery
}

// weight counts one item and returns its observation weight: timeEvery
// when picked, 1 for a traced item off the pick, else 0.
func (s *sampler) weight(traced bool) uint64 {
	picked := s.due()
	*s++
	switch {
	case picked:
		return timeEvery
	case traced:
		return 1
	}
	return 0
}

// execCmd is a high-priority executor command.
type execCmd struct {
	snapshot uint64 // snapshot now at this version (local/dist-n)
	resendTo string // downstream slot to resend retained output to
	after    uint64
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

	// role and suppress gate emission on the lock-free output path.
	role     atomic.Int32
	suppress atomic.Bool

	mu         sync.Mutex
	cond       *sync.Cond
	running    bool
	paused     bool
	execParked bool
	failed     bool
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
	isSource       bool
	isSink         bool
	sourceOps      []graph.OpID

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
	sendGen uint64
	// dropStream discards stream arrivals between a controller-driven
	// restore and the matching resume. During region-wide recovery every
	// sender is paused, so nothing legitimate flows in that window — only
	// stale pre-failure messages from peers that have not yet restored
	// (and thus not yet aborted their own in-flight retries), which would
	// poison the freshly reset dedup state.
	dropStream bool
	extFwdSeq  atomic.Uint64
	forwardTo  simnet.NodeID // post-handoff relay target (§III-E)
	// preBuf holds stream arrivals before activation, up to preBufLimit;
	// preDrops counts the arrivals dropped past it, journaled once when
	// the slot activates.
	preBuf   []streamMsg
	preDrops int
	// processed counts executed data tuples (telemetry: the elastic
	// decision's per-instance tuple rate). Read atomically off the executor.
	processed uint64
	// keyRangeGen counts completed key-range imports (split/merge state
	// arrivals); the region polls it to detect that a shipped range has
	// landed before flipping the partition table.
	keyRangeGen atomic.Uint64

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

// runtimeState is the executor bookkeeping carried inside checkpoints so a
// restored node resumes with consistent edge sequences.
type runtimeState struct {
	OutSeq     map[string]uint64
	InHW       map[string]uint64
	LogVersion uint64
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
	}
	n.role.Store(int32(cfg.Role))
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
	// A node that previously handed a slot off and returned to the idle
	// pool carries a stale relay target; hosting again must drop it, or
	// pre-activation arrivals get relayed to the old slot's home instead
	// of buffering in preBuf.
	n.forwardTo = ""
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
	n.isSource, n.isSink = p.isSource, p.isSink
	n.sourceOps = p.sourceOps
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

// Start launches the node's goroutines.
func (n *Node) Start() {
	n.mu.Lock()
	n.running = true
	n.mu.Unlock()
	n.wg.Add(4)
	go n.dispatchLoop()
	go n.controlLoop()
	go n.execLoop()
	go n.flushLoop()
	if n.cfg.Scheme.Checkpoints() {
		n.wg.Add(1)
		go n.persistLoop()
	}
}

// Stop shuts the node down gracefully and waits for its goroutines.
func (n *Node) Stop() {
	n.shutdown(false)
	n.wg.Wait()
	// With every loop stopped, deliver the emissions still waiting on
	// the latency bound: the unbatched path sent each emission before
	// returning, and a graceful stop keeps that guarantee. (A crash
	// goes through Fail, which rightly loses them.)
	n.batch.flushAll()
}

// Fail crashes the phone: goroutines stop, the endpoint is sealed, local
// storage is lost. It does not wait: a crash is not graceful.
func (n *Node) Fail() {
	n.cfg.Phone.Kill()
	n.cfg.Store.MarkLost()
	n.cfg.Endpoint.Seal()
	n.shutdown(true)
}

// Failed reports whether the node has crashed.
func (n *Node) Failed() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.failed
}

func (n *Node) shutdown(failed bool) {
	n.mu.Lock()
	n.running = false
	if failed {
		n.failed = true
	}
	n.mu.Unlock()
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.cond.Broadcast()
}

// IngestExternal admits one externally sensed tuple on source operator
// src. The workload driver calls this on the phone currently hosting the
// source. A node that has handed its slot off relays the tuple to the
// replacement: the region's placement map repoints only after the transfer
// lands, and external input admitted in that window must reach the new
// home rather than be dropped. The node admits a copy carved from its
// ingest slab, so the caller may build t on its stack and keeps ownership
// of it.
func (n *Node) IngestExternal(src graph.OpID, t *tuple.Tuple) {
	n.IngestExternalTraced(src, t, obs.SpanCtx{})
}

// IngestExternalTraced is IngestExternal carrying a sampled trace context
// (zero = untraced). The region's ingest path records the ingest span and
// passes the context here; it rides the queued item to the executor. The
// tuple's Created stamp, which that path has just read off the clock, is
// also its enqueue time.
func (n *Node) IngestExternalTraced(src graph.OpID, t *tuple.Tuple, tc obs.SpanCtx) {
	n.mu.Lock()
	c := n.ingest.Clone(t)
	q := n.queueFor(graph.ExternalSlot)
	if q == nil || !n.running {
		fwd := n.forwardTo
		running := n.running
		n.mu.Unlock()
		if running && fwd != "" {
			m := streamMsg{FromSlot: graph.ExternalSlot, FromOp: graph.NoOp, ToOp: src, EdgeSeq: c.Seq, Trace: tc, Item: tuple.DataItem(c)}
			n.relay(fwd, simnet.ClassData, c.Size, m)
		}
		return
	}
	*q.slot() = queued{fromOp: graph.NoOp, toOp: src, item: tuple.DataItem(c), tc: tc, at: c.Created}
	if q.depth != nil {
		if w := q.depthTicks.weight(false); w > 0 {
			q.depth.ObserveN(int64(q.len()), w)
		}
	}
	n.cond.Signal()
	n.mu.Unlock()
}

// queueFor resolves a stream's origin slot to its upstream queue through
// the hosted pipeline's upIdx table, or nil when this node hosts no slot
// the origin feeds. Caller holds n.mu, under which the pipeline and qList
// change only together.
func (n *Node) queueFor(from graph.SlotID) *upQueue {
	p := n.pipe.Load()
	if p == nil {
		return nil
	}
	if qi := p.upstreamOf(from); qi >= 0 && qi < len(n.qList) {
		return n.qList[qi]
	}
	return nil
}

// relay ships a payload to a peer over the region WiFi, detouring over
// cellular when the medium fails (a departed sender's WiFi attempt fails
// instantly, so this covers both in-range and out-of-range senders),
// charging transmit energy exactly when a send succeeds. Used by the
// post-handoff straggler forwarding paths and the handoff transfer itself.
func (n *Node) relay(to simnet.NodeID, class simnet.Class, size int, payload interface{}) bool {
	if err := n.cfg.WiFi.Unicast(n.id, to, class, size, payload); err == nil {
		n.cfg.Phone.DrainTx(size)
		return true
	}
	if n.cfg.Cell != nil {
		if err := n.cfg.Cell.Send(n.id, to, class, size, payload); err == nil {
			n.cfg.Phone.DrainTx(size)
			return true
		}
	}
	return false
}

// preBufLimit bounds the stream arrivals an incoming replacement buffers
// before its state transfer installs; later ones are dropped and counted.
const preBufLimit = 4096

// bufferEarlyLocked buffers one stream arrival at a node not yet hosting a
// slot, or counts it dropped past preBufLimit. Caller holds n.mu.
func (n *Node) bufferEarlyLocked(m *streamMsg) {
	if len(n.preBuf) < preBufLimit {
		n.preBuf = append(n.preBuf, *m)
		return
	}
	n.preDrops++
}

// takeEarlyLocked hands over the arrivals buffered before activation, and
// journals (and logs) how many were dropped past the bound, once per
// activation. Caller holds n.mu and has configured the slot.
func (n *Node) takeEarlyLocked() []streamMsg {
	buffered := n.preBuf
	n.preBuf = nil
	if n.preDrops > 0 {
		n.jot("migrate.prebuf_drop", 0, strconv.Itoa(n.preDrops))
		n.preDrops = 0
	}
	return buffered
}

// enqueueStream delivers a cross-slot stream message into its upstream
// queue, suppressing duplicates below the edge-sequence watermark. A node
// that has handed its slot off relays stragglers to the replacement.
func (n *Node) enqueueStream(m *streamMsg) {
	n.mu.Lock()
	if n.dropStream {
		n.mu.Unlock()
		return
	}
	q := n.queueFor(m.FromSlot)
	if q == nil {
		fwd := n.forwardTo
		if fwd == "" && n.slot == "" {
			// Not yet hosting a slot: an incoming replacement buffers
			// early arrivals until its state transfer installs.
			n.bufferEarlyLocked(m)
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if fwd != "" {
			n.relay(fwd, simnet.ClassData, m.Item.WireSize(), *m)
			return
		}
		return
	}
	defer n.mu.Unlock()
	it := queued{fromOp: m.FromOp, toOp: m.ToOp, edgeSeq: m.EdgeSeq, item: m.Item, tc: m.Trace, at: n.clk.Now()}
	if n.obsReg != nil && it.tc.ID != 0 {
		n.tracer.Record(&it.tc, obs.SpanRecv, string(n.id), n.graph.SlotName(m.ToSlot), n.graph.OpName(m.ToOp), int64(it.at))
	}
	if m.FromSlot == graph.ExternalSlot || m.FromSlot == graph.RerouteSlot {
		// Relayed external input from a node that handed this slot off, or
		// a tuple rerouted by a keyed peer that no longer owns its key.
		// Both are admitted exactly once upstream (each relay is one
		// reliable unicast), so they bypass edge-sequence dedup — they
		// carry no per-edge sequence.
		it.edgeSeq = 0
		q.push(&it)
		if q.depth != nil {
			q.depth.Observe(int64(q.len()))
		}
		n.cond.Signal()
		return
	}
	n.tracePark(q, &it, m)
	if q.enqueue(&it) {
		if q.depth != nil {
			q.depth.Observe(int64(q.len()))
		}
		n.cond.Signal()
	}
}

// tracePark records the park span of a traced arrival about to park (out
// of order on an ordered queue), before the queue copies it into the heap.
func (n *Node) tracePark(q *upQueue, it *queued, m *streamMsg) {
	if it.tc.ID == 0 || !q.ordered || it.edgeSeq <= q.lastEnq+1 {
		return
	}
	if _, dup := q.parked[it.edgeSeq]; !dup {
		n.tracer.Record(&it.tc, obs.SpanPark, string(n.id), n.graph.SlotName(m.ToSlot), n.graph.OpName(m.ToOp), int64(it.at))
	}
}

// enqueueStreamBatch unbatches a coalesced delivery into its upstream
// queues under one lock acquisition — the receive half of edge batching.
// The relay and pre-activation cases mirror enqueueStream, acting on the
// batch as a whole (every message in a batch shares one origin slot).
func (n *Node) enqueueStreamBatch(bm *batchMsg) {
	if len(bm.Msgs) == 0 {
		return
	}
	n.mu.Lock()
	if n.dropStream {
		n.mu.Unlock()
		recycleBatch(bm)
		return
	}
	from := bm.Msgs[0].FromSlot
	q := n.queueFor(from)
	if q == nil {
		fwd := n.forwardTo
		if fwd == "" && n.slot == "" {
			for i := range bm.Msgs {
				n.bufferEarlyLocked(&bm.Msgs[i])
			}
			n.mu.Unlock()
			recycleBatch(bm)
			return
		}
		n.mu.Unlock()
		if fwd != "" {
			n.relay(fwd, simnet.ClassData, bm.wireSize(), bm) // the batch goes with it
			return
		}
		return
	}
	var at time.Duration
	if n.obsReg != nil {
		at = n.clk.Now()
	}
	// A batch comes from one upstream slot, so its queue is resolved once;
	// last is the queue of the last accepted enqueue, whose depth is
	// observed once for the whole delivery.
	var last *upQueue
	var it queued
	for i := range bm.Msgs {
		m := &bm.Msgs[i]
		if m.FromSlot != from {
			from = m.FromSlot
			if q = n.queueFor(from); q == nil {
				continue
			}
		} else if q == nil {
			continue
		}
		it = queued{fromOp: m.FromOp, toOp: m.ToOp, edgeSeq: m.EdgeSeq, item: m.Item, tc: m.Trace, at: at}
		if it.tc.ID != 0 {
			n.tracer.Record(&it.tc, obs.SpanRecv, string(n.id), n.graph.SlotName(m.ToSlot), n.graph.OpName(m.ToOp), int64(at))
			n.tracePark(q, &it, m)
		}
		if q.enqueue(&it) {
			last = q
		}
	}
	if last != nil && last.depth != nil {
		last.depth.Observe(int64(last.len()))
	}
	n.mu.Unlock()
	if last != nil {
		n.cond.Signal()
	}
	recycleBatch(bm)
}

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

// injectCmd queues a high-priority executor command.
func (n *Node) injectCmd(c execCmd) {
	n.mu.Lock()
	n.cmds = append(n.cmds, c)
	n.mu.Unlock()
	n.cond.Signal()
}

// InjectToken makes a source slot admit a checkpoint token for version v
// at the next tuple boundary (controller notification, §III-B step 1).
func (n *Node) InjectToken(v uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.queueFor(graph.ExternalSlot)
	if q == nil {
		return
	}
	*q.slot() = queued{fromOp: graph.NoOp, toOp: graph.NoOp, item: tuple.MarkerItem(tuple.Marker{Kind: tuple.MarkerToken, Version: v})}
	n.cond.Signal()
}

// execLoop is the executor: it owns the operators and all stream state.
func (n *Node) execLoop() {
	defer n.wg.Done()
	// firedLast alternates timer-vs-queue priority: due timers normally
	// preempt queued tuples (window closes must not starve behind a
	// saturated stream), but directly after a timer dispatch the queues
	// get one turn first, so an operator bug that re-arms an already-due
	// timer cannot starve tuple processing either.
	firedLast := false
	// boundary is the clock reading taken as the last tuple finished (a
	// timed tuple's end stamp, or one taken because the next is timed), or
	// noStamp. When the executor goes straight on to a queued item, the
	// reading also serves as that item's dequeue stamp and its first
	// operator's latency start; anything in between that takes time
	// (parking, a flush, a command, timers, a marker) discards it.
	boundary := noStamp
	preserves := n.cfg.Scheme.PreservesAtSources()
	// it is the executor-owned slot the next item is popped into; it is
	// cleared after handling so a parked executor pins no tuple.
	var it queued
	for {
		n.mu.Lock()
		var cmd *execCmd
		var qi int
		var run []queued
		var have bool
		var fireTimers bool
		for {
			if !n.running {
				n.mu.Unlock()
				return
			}
			if !n.paused {
				if len(n.cmds) > 0 {
					c := n.cmds[0]
					n.cmds = n.cmds[1:]
					cmd = &c
					break
				}
				// Due operator timers take priority over queued tuples
				// (except right after a timer dispatch, see firedLast):
				// a saturated stream must not starve window closes past
				// their boundary. Slots without pending timers pay one
				// slice-length check here — the clock is only read once
				// a timer is actually pending.
				timersDue := func() bool {
					p := n.pipe.Load()
					return p != nil && len(p.timers) > 0 && p.timerDue(n.clk.Now())
				}
				if !firedLast && timersDue() {
					fireTimers = true
					break
				}
				qi, have = n.nextItemLocked(&it)
				if have {
					if preserves && n.pipe.Load().upstreams[qi] == graph.ExternalSlot {
						run = n.popRunLocked(n.qList[qi], &it, 0)
					}
					break
				}
				if firedLast && timersDue() {
					fireTimers = true
					break
				}
			}
			boundary = noStamp
			// Out of runnable work: opportunistically ship any partial
			// batches before parking, so a low-rate stream's delivery is
			// as prompt as the unbatched path instead of waiting on the
			// flush timer. Size- and marker-bound flushes already happen
			// inline; this covers the trickle case.
			if n.batch.pendingSlots() > 0 {
				n.mu.Unlock()
				n.batch.flushAll()
				n.mu.Lock()
				continue // arrivals during the flush re-enter the checks
			}
			// Parking with a pending timer: arm a wake goroutine for the
			// earliest deadline, so an idle stream still closes windows.
			// A newly registered timer earlier than the armed wake gets
			// its own goroutine — the stale later wake fires harmlessly.
			if !n.paused {
				if p := n.pipe.Load(); p != nil {
					if at, ok := p.nextTimerAt(); ok && (!n.timerArmed || at < n.timerWakeAt) {
						n.timerArmed = true
						n.timerWakeAt = at
						go n.wakeAtTimer(at)
					}
				}
			}
			n.execParked = true
			n.cond.Broadcast()
			n.cond.Wait()
		}
		n.execParked = false
		n.mu.Unlock()

		firedLast = fireTimers
		now := boundary
		boundary = noStamp
		switch {
		case cmd != nil && cmd.resendTo != "":
			n.doResend(cmd.resendTo, cmd.after)
		case cmd != nil:
			n.doPeriodicSnapshot(cmd.snapshot)
		case fireTimers:
			if p := n.pipe.Load(); p != nil {
				n.fireDueTimers(p)
			}
		case have:
			if p := n.pipe.Load(); p != nil {
				if run != nil {
					boundary = n.handleRun(p, qi, run, now)
				} else {
					boundary = n.handleItem(p, qi, &it, now)
				}
			}
			it = queued{}
		}
	}
}

// popRunLocked completes the preservation run opened by first, an item just
// popped from a source slot's external queue q: the fresh tuples queued
// directly behind it for the same source operator, as many as fit one
// broadcast block with it (a larger tuple travels alone; every tuple counts
// for at least a byte, so a run is bounded whatever the sizes). It never
// spans a marker — a token moves the log version, a replay-end marker ends
// the replayed tuples, which are not preserved again — and is popped whole:
// restore keeps what is still queued as never preserved. Markers and
// replayed tuples open no run (nil). The run lives in scratch buffer buf,
// which must hold no committed block. Caller holds n.mu.
func (n *Node) popRunLocked(q *upQueue, first *queued, buf int) []queued {
	t := first.item.Tuple
	if t == nil || t.Replay {
		return nil
	}
	run := append(n.runs[buf][:0], *first)
	for size := max(t.Size, 1); q.len() > 0; {
		next := &q.items[q.head]
		nt := next.item.Tuple
		if nt == nil || nt.Replay || next.toOp != first.toOp {
			break
		}
		if size += max(nt.Size, 1); size > n.cfg.Broadcast.BlockSize {
			break
		}
		run = append(run, queued{})
		q.pop(&run[len(run)-1])
	}
	n.runs[buf] = run
	return run
}

// topUpRun pops the next preservation run of external queue qi into scratch
// buffer buf, but only when the executor's own loop would pick exactly that
// next: a committed block was logged under the current log version, so it
// must execute before any token, command, timer or pause is handled, and
// nothing may be committed past one.
func (n *Node) topUpRun(p *pipeline, qi, buf int) []queued {
	if len(p.timers) > 0 && p.timerDue(n.clk.Now()) {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.running || n.paused || len(n.cmds) > 0 {
		return nil
	}
	q := n.qList[qi]
	if q.stalled || q.len() == 0 {
		return nil
	}
	for i, sib := range n.qList {
		if i != qi && !sib.stalled && sib.len() > 0 {
			return nil
		}
	}
	if t := q.items[q.head].item.Tuple; t == nil || t.Replay {
		return nil
	}
	var first queued
	q.pop(&first)
	return n.popRunLocked(q, &first, buf)
}

// handleRun preserves runs of admitted source tuples, starting with run (in
// scratch buffer 0), and executes them in admission order as a two-deep
// pipeline: while a committed block waits out its flash write and executes,
// the next run is already being committed behind it, so the modelled wait
// hides behind useful work. A block executes only once its own write is
// durable. A node that fails or is stopped part-way (a battery dying inside
// runOp) abandons every tuple not yet executed, committed blocks included:
// preserved but unprocessed is exactly what replay expects. A timed first
// tuple takes its dequeue stamp before the commit, and the previous block's
// end stamp flows into the next: a block's first tuple carries the residual
// flash wait in its operator latency, not its edge wait.
func (n *Node) handleRun(p *pipeline, qi int, run []queued, now time.Duration) time.Duration {
	if n.obsReg != nil && now < run[0].at && (p.timing[qi].due() || run[0].tc.ID != 0) {
		now = n.clk.Now()
	}
	// A committed block is the run in scratch buffer i, durable on flash at
	// durable[i]; head executes next.
	var durable [2]time.Duration
	durable[0] = n.preserveRun(run)
	for head, committed := 0, 1; committed > 0; head, committed = head^1, committed-1 {
		if committed == 1 {
			if next := n.topUpRun(p, qi, head^1); next != nil {
				durable[head^1] = n.preserveRun(next)
				committed++
			}
		}
		run = n.runs[head]
		// Park, not Sleep: when a next run is waiting, its write is already
		// queued behind this one, so waking a few µs late idles no device.
		n.clk.Park(durable[head] - n.clk.Now())
		for i := range run {
			now = n.handleItem(p, qi, &run[i], now)
			select {
			case <-n.stopCh:
				clear(n.runs[0])
				clear(n.runs[1])
				return noStamp
			default:
			}
		}
		clear(run) // the scratch must not pin the tuples until it is reused
	}
	return now
}

// nextItemLocked round-robins across unstalled non-empty queues, popping
// the next item into dst and returning its queue's pipeline upstream index.
func (n *Node) nextItemLocked(dst *queued) (int, bool) {
	for i := 0; i < len(n.qList); i++ {
		qi := (n.rr + i) % len(n.qList)
		q := n.qList[qi]
		if q.stalled || q.len() == 0 {
			continue
		}
		n.rr = (n.rr + i + 1) % len(n.qList)
		q.pop(dst)
		return qi, true
	}
	return -1, false
}

// handleItem processes one stream item (tuple or marker). The data path is
// lock-free: watermarks advance on the pipeline's atomic counters and the
// operator chain runs against the compiled routes.
//
// The item is timed when its queue's sampler picks it or it is traced. now
// is a clock reading still current at the call (see execLoop), else
// noStamp. The return value is the reading taken as the item finished (when
// it or its queue's next item is timed), or noStamp.
func (n *Node) handleItem(p *pipeline, qi int, it *queued, now time.Duration) time.Duration {
	from := p.upstreams[qi]
	if it.item.Marker != nil {
		switch it.item.Marker.Kind {
		case tuple.MarkerToken:
			n.onToken(p, qi, it.item.Marker.Version, it.edgeSeq)
		case tuple.MarkerReplayEnd:
			n.onReplayEnd(p, qi, it.item.Marker.Version)
		}
		return noStamp
	}
	t := it.item.Tuple
	atomic.AddUint64(&n.processed, 1)
	n.curReady = it.at
	if n.obsReg != nil {
		if n.opWeight = p.timing[qi].weight(it.tc.ID != 0); n.opWeight > 0 {
			if now < it.at { // no stamp, or the item was enqueued after it
				now = n.clk.Now()
			}
			if h := p.edgeWait[qi]; h != nil && it.at > 0 {
				h.ObserveN(int64(now-it.at), n.opWeight)
			}
			if it.tc.ID != 0 {
				n.curTrace = it.tc
				n.tracer.Record(&n.curTrace, obs.SpanDequeue, string(n.id), p.slot, n.graph.OpName(it.toOp), int64(now))
			}
		}
	}
	switch from {
	case graph.ExternalSlot:
		n.forwardExternalToStandby(p, it.toOp, t)
	case graph.RerouteSlot:
		// Rerouted tuples carry no edge sequence; no watermark to advance.
	default:
		p.noteInHW(qi, it.edgeSeq)
	}
	// A keyed instance popping a tuple for a key range that moved away
	// (queued before the partition table flipped) relays it to the new
	// owner instead of running it — the split/merge exactly-once path.
	if p.keyedGroup != nil {
		if owner := p.keyedGroup.Owner(t.Kind); owner != p.keyedInst {
			n.rerouteToOwner(p, owner, t)
			n.curTrace, n.curReady, n.opWeight = obs.SpanCtx{}, 0, 1
			return noStamp
		}
	}
	end := noStamp
	if idx := p.opFor(it.toOp); idx >= 0 {
		end = n.runOp(p, idx, n.graph.OpName(it.fromOp), t, now)
	}
	n.curTrace, n.curReady, n.opWeight = obs.SpanCtx{}, 0, 1
	if end == noStamp && n.obsReg != nil && p.timing[qi].due() {
		end = n.clk.Now()
	}
	return end
}

// forwardExternalToStandby duplicates externally admitted input to the
// slot's standby replica under rep-2, so both replicas build the same
// state. This is part of the replication network overhead (Fig. 10b).
func (n *Node) forwardExternalToStandby(p *pipeline, src graph.OpID, t *tuple.Tuple) {
	if !n.cfg.Scheme.Replicated() {
		return
	}
	if Role(n.role.Load()) != RolePrimary {
		return
	}
	seq := n.extFwdSeq.Add(1)
	standby, ok := n.resolveStandby(p.slotID)
	if !ok {
		return
	}
	msg := streamMsg{FromSlot: graph.ExternalSlot, ToSlot: p.slotID, FromOp: graph.NoOp, ToOp: src, EdgeSeq: seq, Item: tuple.DataItem(t)}
	if err := n.cfg.WiFi.Unicast(n.id, standby, simnet.ClassReplication, t.Size, msg); err == nil {
		n.cfg.Phone.DrainTx(t.Size)
	}
}

// preserveRun begins source preservation (§III-B step 3) for a run as a
// group commit: the run joins the local replay log in one append and one
// flash write and, when configured, is replicated to every phone in one UDP
// broadcast datagram. Modelled flash time, airtime payload and radio energy
// are those of the run's summed bytes. It does not wait for the flash: it
// queues the write behind those already on the device (writes are serial,
// never overlapped) and returns when it completes. The run's tuple list is
// carved from the executor's preservation slab, so a run allocates at most
// its datagram.
func (n *Node) preserveRun(run []queued) time.Duration {
	ts := n.carveRunTs(len(run))
	size := 0
	for i := range run {
		ts[i] = run[i].item.Tuple
		size += ts[i].Size
	}
	v, srcOp := n.logVersion.Load(), n.graph.OpName(run[0].toOp)
	n.cfg.Store.AppendSourceRun(v, srcOp, ts)
	n.flashDone = max(n.clk.Now(), n.flashDone) + n.cfg.Phone.FlashWriteTime(size)
	if n.cfg.PreserveBroadcast {
		n.cfg.WiFi.Broadcast(n.id, simnet.ClassPreserve, size, &preserveMsg{Version: v, Source: srcOp, Ts: ts})
		n.cfg.Phone.DrainTx(size)
	}
	return n.flashDone
}

// runSlabLen is how many tuple pointers one preservation slab array holds:
// 2 KB, enough for 256 runs of one tuple.
const runSlabLen = 256

// carveRunTs returns a k-entry tuple list carved from the preservation
// slab. Like tuple.Slab, a carved range is never handed out again, because
// receivers read a broadcast list from their inboxes long after the run has
// moved on. The log and every replica copy the pointers out, so an array
// lives only while a datagram in flight still points into it.
func (n *Node) carveRunTs(k int) []*tuple.Tuple {
	if len(n.runSlab) < k {
		n.runSlab = make([]*tuple.Tuple, max(k, runSlabLen))
	}
	ts := n.runSlab[:k:k]
	n.runSlab = n.runSlab[k:]
	return ts
}

// runOp executes one operator on a tuple, charging its service time. The
// operator emits through its bound Context as it processes: in-slot
// targets recurse synchronously, cross-slot targets ride the region
// network, and sink operators publish externally (see opSink). Both
// contracts route identically — the emit-context path pushes straight
// into the compiled pipeline with zero per-tuple allocation, the legacy
// path replays its returned []Out through the same Context. No lock is
// taken and no map is consulted. At opWeight 0 it reads no clock.
//
// start is the operator's latency start stamp when the caller already holds
// a current clock reading (the executor's dequeue stamp), else noStamp and
// runOp reads the clock itself. It returns the latency end stamp, or
// noStamp when it took none.
func (n *Node) runOp(p *pipeline, idx int, fromOp string, t *tuple.Tuple, start time.Duration) time.Duration {
	c := &p.ops[idx]
	if cost := c.op.Cost(t); cost > 0 {
		if !n.cfg.Phone.ExecFrom(n.clk, n.curReady, cost) {
			n.Fail()
			return noStamp
		}
		n.maybeReportChronic()
	}
	if c.lat == nil || n.opWeight == 0 {
		_ = c.proc(c.ctx, fromOp, t) // an operator error costs only this tuple
		return noStamp
	}
	if start == noStamp {
		start = n.clk.Now()
	}
	if n.curTrace.ID != 0 {
		n.tracer.Record(&n.curTrace, obs.SpanOp, string(n.id), p.slot, c.id, int64(start))
	}
	_ = c.proc(c.ctx, fromOp, t) // an operator error costs only this tuple
	end := n.clk.Now()
	c.lat.ObserveN(int64(end-start), n.opWeight)
	return end
}

// fireDueTimers runs the pending operator timers whose simulated-time
// deadline has passed, on the executor at a tuple boundary. Emissions from
// OnTimer flow through the operator's Context exactly like Process
// emissions. The drain is bounded to the timers pending at entry: a timer
// an OnTimer handler re-registers with an already-due deadline waits for
// the next boundary instead of spinning this one forever.
func (n *Node) fireDueTimers(p *pipeline) {
	now := n.clk.Now()
	for pending := len(p.timers); pending > 0; pending-- {
		tm, ok := p.popDueTimer(now)
		if !ok {
			return
		}
		c := &p.ops[tm.op]
		if c.timer == nil {
			continue
		}
		_ = c.timer.OnTimer(c.ctx, tm.at) // an operator error costs only this firing
	}
}

// wakeAtTimer unparks the executor when the earliest pending operator
// timer comes due, so windows close on time on an otherwise idle stream.
// Only the wake matching the currently tracked deadline clears the armed
// flag; superseded later wakes just broadcast harmlessly.
func (n *Node) wakeAtTimer(at time.Duration) {
	if d := at - n.clk.Now(); d > 0 {
		wake := n.clk.NewTimer(d)
		select {
		case <-wake.C():
		case <-n.stopCh:
			wake.Stop()
		}
	}
	n.mu.Lock()
	if n.timerArmed && n.timerWakeAt == at {
		n.timerArmed = false
	}
	n.mu.Unlock()
	n.cond.Broadcast()
}

// followRoute delivers one emission of operator from along a compiled route.
func (n *Node) followRoute(p *pipeline, from *compiledOp, r route, t *tuple.Tuple) {
	if r.local >= 0 {
		n.runOp(p, r.local, from.id, t, noStamp)
		return
	}
	n.sendCross(p, r.down, r.toOp, from.gid, tuple.DataItem(t))
}

func (n *Node) maybeReportChronic() {
	if n.chronicReported || !n.cfg.Phone.BatteryChronic() {
		return
	}
	n.chronicReported = true
	n.report(Report{Type: RepChronicBattery, Phone: n.id})
}

// emitExternal publishes a sink result unless the node is suppressing
// catch-up output (§III-D).
func (n *Node) emitExternal(t *tuple.Tuple) {
	if Role(n.role.Load()) == RoleStandby || n.suppress.Load() {
		return
	}
	if n.curTrace.ID != 0 {
		slot := ""
		if p := n.pipe.Load(); p != nil {
			slot = p.slot
		}
		n.tracer.Record(&n.curTrace, obs.SpanSink, string(n.id), slot, "", int64(n.clk.Now()))
	}
	if n.cfg.OnSinkOutput != nil {
		n.cfg.OnSinkOutput(t)
	}
}

// sendCross ships one item to an operator on another slot. Emissions are
// coalesced per destination slot by the batcher, which flushes on size,
// latency, or an in-band marker, and delivers with urgent-mode cellular
// fallback and failure reporting (§III-D, §III-E).
func (n *Node) sendCross(p *pipeline, down int, toOp, fromOp graph.OpID, item tuple.Item) {
	seq := p.nextOutSeq(down)
	if Role(n.role.Load()) == RoleStandby {
		return // sequence kept aligned with the primary, nothing sent
	}
	msg := streamMsg{FromSlot: p.slotID, FromOp: fromOp, ToSlot: p.downs[down], ToOp: toOp, EdgeSeq: seq, Item: item}
	if n.cfg.Scheme.PreservesAtEdges() && item.Tuple != nil {
		// Classic input preservation writes every retained output to
		// flash on the data path — part of local/dist-n's steady-state
		// overhead (§IV-B).
		n.cfg.Store.AppendEdge(n.graph.SlotName(msg.ToSlot), seq, n.graph.OpName(fromOp), n.graph.OpName(toOp), item.Tuple)
		n.clk.Sleep(n.cfg.Phone.FlashWriteTime(item.Tuple.Size))
	}
	if n.curTrace.ID != 0 {
		n.tracer.Record(&n.curTrace, obs.SpanEmit, string(n.id), p.slot, n.graph.OpName(fromOp), int64(n.clk.Now()))
		msg.Trace = n.curTrace
	}
	n.batch.add(down, &msg)
}

// sendBatch ships one flushed batch to the destination slot's primary and,
// for fresh data under rep-2, a replica copy to its standby. The batch goes
// with the send: its receiver recycles it. Callers hold the batcher's send
// mutex, which keeps edge FIFO order across concurrent flushers.
func (n *Node) sendBatch(toSlot graph.SlotID, b *batchMsg, bytes int, class simnet.Class) {
	msgs := b.Msgs
	if n.batchSizes != nil {
		n.batchSizes.Observe(int64(len(msgs)))
	}
	// Traced messages record their batch-flush/network-send span here —
	// the delta from their emit span is the batch wait. Gated on active
	// sampling so untraced runs never scan the batch.
	if n.tracer.SampleEvery() > 0 {
		for i := range msgs {
			if msgs[i].Trace.ID != 0 {
				n.tracer.Record(&msgs[i].Trace, obs.SpanSend, string(n.id),
					n.graph.SlotName(msgs[i].FromSlot), n.graph.OpName(msgs[i].FromOp), int64(n.clk.Now()))
			}
		}
	}
	// The standby gets its own batch, cut before the primary send: the
	// primary's dispatcher recycles the batch it unbatches, so sharing it —
	// or copying from it after delivery — races with the zeroing.
	var replica *batchMsg
	if class == simnet.ClassData && n.cfg.Scheme.Replicated() {
		replica = takeBatch()
		replica.Msgs = append(replica.Msgs, msgs...)
	}
	n.deliverData(toSlot, bytes, b, class)
	if replica != nil {
		if standby, ok := n.resolveStandby(toSlot); ok {
			if err := n.cfg.WiFi.Unicast(n.id, standby, simnet.ClassReplication, bytes, replica); err == nil {
				n.cfg.Phone.DrainTx(bytes)
			}
		} else {
			recycleBatch(replica) // standby gone (promoted): copy unused
		}
	}
}

// reportAfterAttempts failed delivery attempts trigger the failure report
// that starts controller-side recovery (§III-D); delivery keeps retrying
// afterwards.
const reportAfterAttempts = 3

// maxDeliveryAttempts bounds the full retry horizon (~6 s of simulated
// time at 200 ms per attempt). A coalesced batch carries many tuples, so
// it must not be dropped wholesale on the first sign of trouble: the
// resolver is re-consulted every attempt, and once recovery re-points the
// slot (promotion, replacement) the batch lands at the new primary.
const maxDeliveryAttempts = 30

// markerDeliveryAttempts is the longer horizon (~60 s simulated) for
// deliveries carrying an in-band marker. Markers gate the alignment
// protocols — a dropped token stalls the checkpoint round, and a dropped
// replay-end marker leaves a suppressing sink wedged forever — so they
// keep retrying across a recovery window that would exhaust the data
// horizon.
const markerDeliveryAttempts = 300

// payloadCarriesMarker reports whether a delivery payload contains an
// in-band marker (alone or coalesced into a batch).
func payloadCarriesMarker(payload interface{}) bool {
	switch p := payload.(type) {
	case streamMsg:
		return p.Item.Marker != nil
	case *batchMsg:
		for i := range p.Msgs {
			if p.Msgs[i].Item.Marker != nil {
				return true
			}
		}
	}
	return false
}

// deliverData resolves the destination slot's phone and sends reliably,
// falling back to the cellular network (urgent mode) when the WiFi path is
// broken. After reportAfterAttempts failures it reports the destination
// failed — kicking off recovery — and keeps retrying while the region
// re-points the slot, giving up only past the full retry horizon. The
// resolution rides the epoch-stamped route cache: a placement change bumps
// the region epoch, so retries observe re-points without paying the
// resolver round-trip per attempt.
func (n *Node) deliverData(toSlot graph.SlotID, size int, payload interface{}, class simnet.Class) {
	gen := atomic.LoadUint64(&n.sendGen)
	attempts := maxDeliveryAttempts
	if payloadCarriesMarker(payload) {
		attempts = markerDeliveryAttempts
	}
	var target simnet.NodeID
	for i := 0; i < attempts; i++ {
		if i > 0 {
			n.clk.Sleep(200 * time.Millisecond)
		}
		if atomic.LoadUint64(&n.sendGen) != gen {
			// The node restored mid-retry: this payload predates the
			// rewind, and its edge sequences will be re-emitted. A late
			// stale delivery would poison the receiver's dedup state
			// against those re-emissions.
			return
		}
		var ok bool
		if target, ok = n.resolvePrimary(toSlot); ok {
			if err := n.cfg.WiFi.Unicast(n.id, target, class, size, payload); err == nil {
				n.cfg.Phone.DrainTx(size)
				return
			}
			// Urgent mode: detour over the cellular network (§III-E).
			if n.cfg.Cell != nil && n.cfg.Cell.Attached(target) {
				if err := n.cfg.Cell.Send(n.id, target, class, size, payload); err == nil {
					n.cfg.Phone.DrainTx(size)
					n.mu.Lock()
					reported := n.urgentReported[toSlot]
					n.urgentReported[toSlot] = true
					n.mu.Unlock()
					if !reported {
						n.report(Report{Type: repUrgent, Phone: n.id, Slot: n.graph.SlotName(toSlot), Observed: target})
					}
					return
				}
			}
		}
		if i == reportAfterAttempts-1 && target != "" {
			n.mu.Lock()
			already := n.unreachable[target]
			n.unreachable[target] = true
			n.mu.Unlock()
			if !already {
				n.report(Report{Type: RepFailure, Phone: n.id, Slot: n.graph.SlotName(toSlot), Observed: target})
			}
		}
	}
}

// sendMarker forwards an in-band marker to every downstream slot.
func (n *Node) sendMarker(m tuple.Marker) {
	p := n.pipe.Load()
	if p == nil {
		return
	}
	for down := range p.downs {
		n.sendCross(p, down, graph.NoOp, graph.NoOp, tuple.MarkerItem(m))
	}
}

// onToken runs the alignment step of token-triggered checkpointing.
func (n *Node) onToken(p *pipeline, qi int, v uint64, edgeSeq uint64) {
	from := p.upstreams[qi]
	if from != graph.ExternalSlot {
		p.noteInHW(qi, edgeSeq)
	} else {
		n.logVersion.Store(v)
	}
	n.mu.Lock()
	st, err := n.align.OnToken(n.graph.SlotName(from), v)
	if err != nil {
		n.mu.Unlock()
		return
	}
	if !st.Complete {
		n.qList[qi].stalled = true
		n.mu.Unlock()
		return
	}
	for _, q := range n.qList {
		q.stalled = false
	}
	n.mu.Unlock()
	n.cond.Broadcast()
	n.doTokenCheckpoint(v)
}

// onReplayEnd tracks catch-up termination markers. Replay-end markers are
// aligned exactly like tokens — a channel that has delivered its marker is
// stalled — so no fresh (post-recovery) tuple can overtake the marker
// through a reconverging path and be wrongly discarded by a suppressing
// sink. When every upstream has delivered one, a sink resumes publishing
// and reports; an interior node forwards the marker downstream.
func (n *Node) onReplayEnd(p *pipeline, qi int, epoch uint64) {
	n.mu.Lock()
	set, ok := n.replaySeen[epoch]
	if !ok {
		set = make(map[graph.SlotID]bool)
		n.replaySeen[epoch] = set
	}
	set[p.upstreams[qi]] = true
	complete := len(set) == len(n.alignUpstreams)
	if !complete {
		if qi < len(n.qList) {
			n.qList[qi].stalled = true
		}
		n.mu.Unlock()
		return
	}
	delete(n.replaySeen, epoch)
	for _, q := range n.qList {
		q.stalled = false
	}
	if n.isSink {
		n.suppress.Store(false)
	}
	isSink := n.isSink
	slot := n.slot
	n.mu.Unlock()
	n.cond.Broadcast()
	if isSink {
		n.report(Report{Type: RepCatchUpDone, Phone: n.id, Slot: slot, Epoch: epoch})
		return
	}
	n.sendMarker(tuple.Marker{Kind: tuple.MarkerReplayEnd, Version: epoch})
}

// doTokenCheckpoint snapshots the node (MobiStreams path), hands the blob
// to the async persist worker, and forwards the token (§III-B step 2).
//
// The executor's stop-the-world window covers only what the pipeline mode
// demands: the in-memory state copy under incremental-async (the flash
// write and chunked upload ride the persist goroutine), or the copy plus
// the synchronous flash write under FullOnly — the full-blob baseline whose
// pause grows with state size.
func (n *Node) doTokenCheckpoint(v uint64) {
	start := n.clk.Now()
	n.jot("ckpt.begin", v, "")
	blob, err := n.buildCheckpoint(v)
	if err != nil {
		return
	}
	n.clk.Sleep(copyTime(blob.FullSize))
	if n.cfg.Checkpoint.FullOnly {
		n.clk.Sleep(n.cfg.Phone.FlashWriteTime(blob.Size))
	}
	n.cfg.Store.PutBlob(blob)
	n.jot("ckpt.seal", v, blob.Slot)
	n.observeCheckpoint(n.clk.Now()-start, blob)
	n.report(Report{Type: RepCheckpointed, Phone: n.id, Slot: blob.Slot, Version: v})
	select {
	case n.persistCh <- blob:
	default:
	}
	n.sendMarker(tuple.Marker{Kind: tuple.MarkerToken, Version: v})
}

// doPeriodicSnapshot is the local/dist-n checkpoint path: snapshot at a
// tuple boundary, charge the synchronous flash write, and under dist-n
// ship the state copies to the n peers *synchronously* — the classic
// schemes' checkpoint stalls the operator until the state is safe
// (Cooperative HA's HAU pause), which is the overhead the paper's Fig. 8
// exposes as n grows.
func (n *Node) doPeriodicSnapshot(v uint64) {
	start := n.clk.Now()
	blob, err := n.snapshot(v)
	if err != nil {
		return
	}
	n.cfg.Store.PutBlob(blob)
	n.clk.Sleep(n.cfg.Phone.FlashWriteTime(blob.Size))
	if p := n.pipe.Load(); p != nil {
		n.mu.Lock()
		n.hwAt[v] = p.inHWMap()
		n.mu.Unlock()
	}
	n.report(Report{Type: RepCheckpointed, Phone: n.id, Slot: blob.Slot, Version: v})
	replicas := 0
	if n.cfg.Scheme.Kind == ft.DistN {
		for _, p := range n.cfg.DistPeers {
			if err := n.cfg.WiFi.Unicast(n.id, p, simnet.ClassCheckpoint, blob.Size, distBlobMsg{Blob: blob}); err == nil {
				replicas++
				n.cfg.Phone.DrainTx(blob.Size)
			}
		}
	}
	// The classic schemes stall the executor through the flash write and
	// the peer shipping — their whole checkpoint is the pause.
	n.observeCheckpoint(n.clk.Now()-start, blob)
	n.report(Report{Type: RepPersisted, Phone: n.id, Slot: blob.Slot, Version: v, Replicas: replicas})
}

// doResend replays retained output for a recovered downstream (input
// preservation, executed on the executor so ordering with fresh emissions
// is exact). The replay log is shipped in size-bounded batches over the
// same serialised delivery path as fresh output.
func (n *Node) doResend(downstream string, after uint64) {
	entries := n.cfg.Store.EdgeLogSince(downstream, after)
	p := n.pipe.Load()
	to, ok := n.graph.SlotID(downstream)
	if p == nil || !ok {
		return
	}
	maxMsgs, maxBytes := n.batch.maxMsgs, n.batch.maxBytes
	var b *batchMsg
	bytes := 0
	flush := func() {
		if b == nil {
			return
		}
		n.batch.sendMu.Lock()
		n.sendBatch(to, b, bytes, simnet.ClassRecovery)
		n.batch.sendMu.Unlock()
		b, bytes = nil, 0
	}
	for _, e := range entries {
		if b == nil {
			b = takeBatch()
		}
		fromOp, _ := n.graph.OpID(e.FromOp)
		toOp, _ := n.graph.OpID(e.ToOp)
		b.Msgs = append(b.Msgs, streamMsg{FromSlot: p.slotID, FromOp: fromOp, ToSlot: to,
			ToOp: toOp, EdgeSeq: e.EdgeSeq, Item: tuple.DataItem(e.T)})
		bytes += e.T.Size
		if len(b.Msgs) >= maxMsgs || bytes >= maxBytes {
			flush()
		}
	}
	flush()
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
