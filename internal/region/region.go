// Package region implements one region's cluster runtime (Fig. 4, low
// level): the phones in WiFi range, the initial placement of slots onto
// phones, the per-region metrics, and the fault hooks (failure, departure)
// that the controller reacts to. Every later placement is the controller's:
// it tells the nodes by installing route tables, and the region keeps no
// placement of its own.
package region

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/keyed"
	"mobistreams/internal/node"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/seqset"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
	"mobistreams/internal/tuple"
)

// Config assembles a region.
type Config struct {
	// ID names the region ("bus-stop-1").
	ID string
	// Graph is the query network computed in this region.
	Graph *graph.Graph
	// Registry builds the graph's operators ("the code" the controller
	// ships to phones).
	Registry operator.Registry
	// Scheme is the fault-tolerance scheme.
	Scheme ft.Scheme
	// Phones is the number of phones in the region; must cover the
	// graph's slots (plus one per slot for rep-2 standbys). New places
	// the slots on the first phones, and its route table (Founding) is
	// every founding node's first.
	Phones int
	Clock  clock.Clock
	// WiFi configures the region's shared medium.
	WiFi simnet.WiFiConfig
	// Cell is the (shared) cellular network; may be nil for isolated
	// single-region tests.
	Cell         *simnet.Cellular
	ControllerID simnet.NodeID
	PhoneCfg     phone.Config
	// Broadcast configures checkpoint dissemination; its BlockSize
	// (default broadcast.DefaultBlockSize) also bounds a source's
	// preservation run.
	Broadcast broadcast.Config
	// PreserveBroadcast replicates source logs region-wide (MobiStreams).
	PreserveBroadcast bool
	// RadiusM is the radius of the region's WiFi coverage disc, centred at
	// the origin, for the planner's departure forecast; 0 disables it.
	RadiusM float64
	// QoS is every node's output-path quality of service: an end-to-end
	// latency budget driving adaptive batch-flush deadlines, plus the
	// edge-level batch size bounds. The zero value batches with defaults.
	QoS node.QoS
	// Checkpoint configures every node's snapshot pipeline (the zero
	// value is incremental-async with default chain/copy parameters).
	Checkpoint node.CheckpointConfig
	// OnSinkOutput publishes deduplicated sink results beyond the region
	// (inter-region cascading); may be nil.
	OnSinkOutput func(publisher simnet.NodeID, t *tuple.Tuple)
	// Obs is the shared observability registry (histograms, tracer,
	// journal). Nil makes the region create its own: per-operator and
	// per-edge histograms are always on; tracing stays off until
	// Obs().Tracer.SetSampleEvery enables it.
	Obs *obs.Registry
}

// Region is a running cluster of phones.
type Region struct {
	cfg  Config
	clk  clock.Clock
	wifi *simnet.WiFi
	obs  *obs.Registry

	// hosts caches, per graph.SlotID, the node last seen hosting the
	// slot's primary: Placement and Ingest answer from it while the node
	// still hosts the slot, and look again among the nodes when it does
	// not.
	hosts []atomic.Pointer[host]
	// founding is the initial placement: the route table every founding
	// node starts from, and the phones it leaves idle.
	founding     *node.Routes
	foundingIdle []simnet.NodeID
	// stopping mirrors `stopped` for the lock-free ingest path.
	stopping atomic.Bool

	// keyed maps each logical keyed operator to its shared elastic group
	// (instance IDs + live partition table). The map is immutable after
	// New; the groups themselves are concurrency-safe. Every node hosting
	// the graph shares these pointers, so installing a successor table
	// flips routing everywhere at once.
	keyed map[string]*keyed.Group

	mu sync.Mutex
	// phones are physical devices, keyed by phone ID. nodes/endpoints/
	// stores are keyed by endpoint ID: a phone's primary endpoint shares
	// the phone's ID, while a rep-2 standby on that phone gets its own
	// endpoint identity (standbyKey) so the two inboxes never race.
	phones    map[simnet.NodeID]*phone.Phone
	nodes     map[simnet.NodeID]*node.Node
	stores    map[simnet.NodeID]*storage.Store
	endpoints map[simnet.NodeID]*simnet.Endpoint
	// ring is the founding phones, sorted: the dist-n persistence ring.
	ring     []simnet.NodeID
	departed map[simnet.NodeID]bool
	failed   map[simnet.NodeID]bool
	// sources are the graph's source operators in declaration order.
	sources    []ingestSource
	started    bool
	stopped    bool
	joined     int // phones recruited after construction (ID allocation)
	migrations int64
	// domainDeparts counts phones lost (departed or failed) per WiFi
	// channel domain — the placement forecaster's Poisson departure-rate
	// input. Sized on first use to the medium's channel count.
	domainDeparts []int64

	// teleMu guards each phone's energy reading at the previous snapshot,
	// which the next one differentiates into a drain rate.
	teleMu   sync.Mutex
	telePrev map[simnet.NodeID]telePoint

	// seenOutput is the sink's exactly-once filter: per source operator,
	// the exact set of sequences already published. lastSrc/lastSeen cache
	// the set of the last tuple's source, so a run of results from one
	// source never consults the map. winStart/winBase open the measurement
	// window Report views (see OpenWindow). All are guarded by outMu.
	outMu      sync.Mutex
	seenOutput map[string]*seqset.Set
	lastSrc    string
	lastSeen   *seqset.Set
	winStart   time.Duration
	winBase    uint64
	// sink is the sink-latency family's histogram: one observation per
	// published result; duplicates counts the results the filter dropped.
	sink       *obs.Histogram
	duplicates atomic.Int64
}

// New builds a region: phones p1..pN, slots placed in sorted order onto the
// first phones, rep-2 standbys rotated one phone ahead, the rest idle.
func New(cfg Config) (*Region, error) {
	slots := cfg.Graph.Slots()
	need := len(slots)
	if cfg.Scheme.Replicated() && cfg.Phones < need {
		return nil, fmt.Errorf("region %s: rep-2 needs at least %d phones", cfg.ID, need)
	}
	if cfg.Phones < need {
		return nil, fmt.Errorf("region %s: %d phones cannot host %d slots", cfg.ID, cfg.Phones, need)
	}
	// Nodes bound a source-preservation run by the block size, so they need
	// the dissemination default too.
	if cfg.Broadcast.BlockSize <= 0 {
		cfg.Broadcast.BlockSize = broadcast.DefaultBlockSize
	}
	// Surface registry wiring bugs (missing factory, wrong ID) here as
	// errors instead of panics at placement or recovery time.
	if err := cfg.Registry.Validate(cfg.Graph.Operators()); err != nil {
		return nil, fmt.Errorf("region %s: %w", cfg.ID, err)
	}
	r := &Region{
		cfg:        cfg,
		clk:        cfg.Clock,
		wifi:       simnet.NewWiFi(cfg.Clock, cfg.WiFi),
		phones:     make(map[simnet.NodeID]*phone.Phone),
		nodes:      make(map[simnet.NodeID]*node.Node),
		stores:     make(map[simnet.NodeID]*storage.Store),
		endpoints:  make(map[simnet.NodeID]*simnet.Endpoint),
		departed:   make(map[simnet.NodeID]bool),
		failed:     make(map[simnet.NodeID]bool),
		seenOutput: make(map[string]*seqset.Set),
		telePrev:   make(map[simnet.NodeID]telePoint),
		keyed:      make(map[string]*keyed.Group),
	}
	for _, gs := range cfg.Graph.KeyedGroups() {
		grp, err := defaultKeyedGroup(gs)
		if err != nil {
			return nil, fmt.Errorf("region %s: %w", cfg.ID, err)
		}
		r.keyed[gs.Logical] = grp
	}
	r.obs = cfg.Obs
	if r.obs == nil {
		r.obs = obs.NewRegistry()
	}
	r.sink = r.obs.Hist(obs.SinkLatency, "")
	srcs := cfg.Graph.Sources()
	r.sources = make([]ingestSource, len(srcs))
	for i, name := range srcs {
		r.sources[i].name = name
		r.sources[i].op, _ = cfg.Graph.OpID(name)
		r.sources[i].slot, _ = cfg.Graph.SlotID(cfg.Graph.SlotOf(name))
	}

	ids := make([]simnet.NodeID, cfg.Phones)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("%s/p%d", cfg.ID, i+1))
	}
	r.ring = slices.Clone(ids)
	slices.Sort(r.ring)
	// Every founding node starts from one table; the controller installs
	// every later one.
	g := cfg.Graph
	routes := &node.Routes{Version: 1,
		Primary: make([]simnet.NodeID, g.NumSlotIDs()), Standby: make([]simnet.NodeID, g.NumSlotIDs())}
	hosted := make(map[simnet.NodeID]bool)
	for i, slot := range slots {
		s, _ := g.SlotID(slot)
		routes.Primary[s] = ids[i]
		hosted[ids[i]] = true
		if cfg.Scheme.Replicated() {
			sbPhone := ids[(i+1)%cfg.Phones]
			routes.Standby[s] = simnet.NodeID(standbyKey(sbPhone, slot))
			hosted[sbPhone] = true
		}
	}
	for _, id := range ids {
		if !hosted[id] {
			r.foundingIdle = append(r.foundingIdle, id)
		}
	}
	r.founding = routes

	for _, id := range ids {
		ph := phone.New(id, cfg.PhoneCfg)
		ep := simnet.NewEndpoint(id, simnet.DefaultInbox)
		st := storage.New()
		r.phones[id] = ph
		r.endpoints[id] = ep
		r.stores[id] = st
		r.wifi.Join(ep)
		if cfg.Cell != nil {
			cfg.Cell.Attach(ep)
		}
	}
	// Build nodes: primaries, standbys, idles. A phone hosting both a
	// primary and a standby runs two node objects that contend for the
	// same physical phone's CPU and battery, each with its own endpoint.
	r.hosts = make([]atomic.Pointer[host], g.NumSlotIDs())
	for i, slot := range slots {
		n := r.buildNode(ids[i], slot, node.RolePrimary, routes)
		r.nodes[ids[i]] = n
		s, _ := g.SlotID(slot)
		r.hosts[s].Store(&host{ids[i], n})
		if cfg.Scheme.Replicated() {
			r.buildStandby(slot, ids[(i+1)%cfg.Phones], routes)
		}
	}
	for _, id := range r.foundingIdle {
		r.nodes[id] = r.buildNode(id, "", node.RoleIdle, routes)
	}
	return r, nil
}

func standbyKey(phoneID simnet.NodeID, slot string) string {
	return string(phoneID) + "#sb#" + slot
}

// buildNode constructs the node runtime for a phone hosting slot (or idle),
// starting from the route table routes (none: an empty one).
func (r *Region) buildNode(id simnet.NodeID, slot string, role node.Role, routes *node.Routes) *node.Node {
	var opIDs []string
	if slot != "" {
		opIDs = r.cfg.Graph.OpsOnSlot(slot)
	}
	var distPeers func(string) []simnet.NodeID
	if r.cfg.Scheme.Kind == ft.DistN {
		distPeers = func(hosted string) []simnet.NodeID { return r.distPeers(hosted, id) }
	}
	return node.New(node.Config{
		Phone:             r.phones[id],
		Slot:              slot,
		Role:              role,
		Registry:          r.cfg.Registry,
		OpIDs:             opIDs,
		Graph:             r.cfg.Graph,
		Scheme:            r.cfg.Scheme,
		Clock:             r.clk,
		WiFi:              r.wifi,
		Cell:              r.cfg.Cell,
		Endpoint:          r.endpoints[id],
		Store:             r.stores[id],
		Routes:            routes,
		ControllerID:      r.cfg.ControllerID,
		Peers:             func() []simnet.NodeID { return r.LivePeers(id) },
		DistPeers:         distPeers,
		Broadcast:         r.cfg.Broadcast,
		PreserveBroadcast: r.cfg.PreserveBroadcast,
		QoS:               r.cfg.QoS,
		Keyed:             r.keyed,
		Checkpoint:        r.cfg.Checkpoint,
		Obs:               r.obs,
		OnSinkOutput:      func(t *tuple.Tuple) { r.onSink(id, t) },
		OnIngest:          func(srcOp string, v interface{}, size int, kind string) { r.Ingest(srcOp, v, size, kind) },
	})
}

// buildStandby constructs a rep-2 standby node for a slot. It runs on the
// standby phone sbPhone (sharing its CPU and battery) but has its own
// endpoint identity, so replication traffic is addressed to it directly.
func (r *Region) buildStandby(slot string, sbPhone simnet.NodeID, routes *node.Routes) {
	sbID := simnet.NodeID(standbyKey(sbPhone, slot))
	ep := simnet.NewEndpoint(sbID, simnet.DefaultInbox)
	st := storage.New()
	r.endpoints[sbID] = ep
	r.stores[sbID] = st
	r.wifi.Join(ep)
	if r.cfg.Cell != nil {
		r.cfg.Cell.Attach(ep)
	}
	// The node's network identity matches its endpoint; the physical
	// device (battery, CPU) is the standby phone's.
	n := node.New(node.Config{
		ID:           sbID,
		Phone:        r.phones[sbPhone],
		Slot:         slot,
		Role:         node.RoleStandby,
		Registry:     r.cfg.Registry,
		OpIDs:        r.cfg.Graph.OpsOnSlot(slot),
		Graph:        r.cfg.Graph,
		Scheme:       r.cfg.Scheme,
		Clock:        r.clk,
		WiFi:         r.wifi,
		Cell:         r.cfg.Cell,
		Endpoint:     ep,
		Store:        st,
		Routes:       routes,
		ControllerID: r.cfg.ControllerID,
		QoS:          r.cfg.QoS,
		Keyed:        r.keyed,
		Obs:          r.obs,
		OnSinkOutput: func(t *tuple.Tuple) { r.onSink(sbID, t) },
	})
	r.nodes[sbID] = n
}

// Founding returns the initial placement: the route table the founding
// nodes start from, and the phones it leaves idle in the order plans take
// them. The controller's record starts from it.
func (r *Region) Founding() (*node.Routes, []simnet.NodeID) {
	return r.founding, slices.Clone(r.foundingIdle)
}

// distPeers lists the n unicast persistence targets under dist-n of the
// node on phone self while it hosts slot: the next n phones after the slot
// in ring order over the region's founding phones, self skipped. A node
// asks at each checkpoint, so a replacement or migration target that took
// the slot later replicates it too.
func (r *Region) distPeers(slot string, self simnet.NodeID) []simnet.NodeID {
	idx := sort.SearchStrings(r.cfg.Graph.Slots(), slot)
	var ids []simnet.NodeID
	for i := 1; len(ids) < r.cfg.Scheme.N && i <= len(r.ring); i++ {
		if cand := r.ring[(idx+i)%len(r.ring)]; cand != self {
			ids = append(ids, cand)
		}
	}
	return ids
}

// Start launches every node.
func (r *Region) Start() {
	r.mu.Lock()
	r.started = true
	nodes := make([]*node.Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	for _, n := range nodes {
		n.Start()
	}
	r.OpenWindow()
}

// Stop shuts all nodes down.
func (r *Region) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.stopping.Store(true)
	nodes := make([]*node.Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	for _, n := range nodes {
		if !n.Failed() {
			n.Stop()
		}
	}
	if drops := r.InboxDrops(); drops > 0 {
		r.jot("inbox.drops", "", uint64(drops), "")
	}
}

// Obs exposes the region's observability registry: always-on operator and
// edge histograms, the sampling tracer and the lifecycle journal.
func (r *Region) Obs() *obs.Registry { return r.obs }

// Jot appends one lifecycle event to the region's journal on behalf of an
// external coordinator — the controller uses it to surface placement-plan
// lifecycle (plan.propose / plan.step / plan.commit / plan.abort).
func (r *Region) Jot(kind, slot string, version uint64, detail string) {
	r.jot(kind, slot, version, detail)
}

// jot appends one lifecycle event to the region's journal.
func (r *Region) jot(kind, slot string, version uint64, detail string) {
	r.obs.Journal.Emit(obs.Event{
		At:      int64(r.clk.Now()),
		Kind:    kind,
		Node:    r.cfg.ID,
		Slot:    slot,
		Version: version,
		Detail:  detail,
	})
}

// ingestSource is one source operator Ingest admits at: its name, graph
// ID, slot and sequence counter.
type ingestSource struct {
	name string
	op   graph.OpID
	slot graph.SlotID
	seq  atomic.Uint64
}

// host is one node hosting a slot, with its endpoint ID.
type host struct {
	id simnet.NodeID
	n  *node.Node
}

// hostOf returns the node hosting slot s's primary: the cached one while
// it still hosts s, else the live node that hosts it now (the lowest ID,
// should two), else the cached one — a failed host stays the answer until
// its replacement takes over. A call takes the mutex only while the cached
// node does not host s.
func (r *Region) hostOf(s graph.SlotID) *host {
	h := r.hosts[s].Load()
	if h.n.Hosts(s) {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var id simnet.NodeID
	for cand, n := range r.nodes {
		if n.Hosts(s) && (id == "" || cand < id) {
			id = cand
		}
	}
	if id == "" {
		return h
	}
	h = &host{id, r.nodes[id]}
	r.hosts[s].Store(h)
	return h
}

// Ingest admits one external tuple at the named source operator, assigning
// its per-source sequence number and timestamp. The workload driver and the
// inter-region path both enter here. The steady-state path is lock-free:
// the source's host is cached (hostOf) and sequence numbers advance
// atomically, so concurrent sources do not serialise on the region mutex.
// A graph has a handful of sources, so a scan beats hashing the name.
func (r *Region) Ingest(srcOp string, value interface{}, size int, kind string) {
	if r.stopping.Load() {
		return
	}
	i := 0
	for i < len(r.sources) && r.sources[i].name != srcOp {
		i++
	}
	if i == len(r.sources) {
		return
	}
	source := &r.sources[i]
	host := r.hostOf(source.slot).n
	// Built on the stack, field by field (a composite literal is built in
	// a temporary and copied): the node copies it into its ingest slab.
	var t tuple.Tuple
	t.Seq = source.seq.Add(1)
	t.Source, t.Kind = srcOp, kind
	t.Created = r.clk.Now()
	t.Size, t.Value = size, value
	// Seq is already assigned, so the sampling decision keys on seq-1:
	// sample-every-1 traces the very first tuple on both backends.
	if tc, ok := r.obs.Tracer.Sample(t.Seq - 1); ok {
		r.obs.Tracer.Record(&tc, obs.SpanIngest, "region", "", srcOp, int64(t.Created))
		host.IngestExternalTraced(source.op, &t, tc)
		return
	}
	host.IngestExternal(source.op, &t)
}

// onSink receives one published sink result: deduplicate (recovery replays
// and rep-2 failovers can duplicate), observe its latency, cascade onward.
// The dedup sets are the output count; the histogram is the only other
// record of the result.
func (r *Region) onSink(publisher simnet.NodeID, t *tuple.Tuple) {
	r.outMu.Lock()
	seen := r.lastSeen
	if seen == nil || t.Source != r.lastSrc {
		if seen = r.seenOutput[t.Source]; seen == nil {
			seen = new(seqset.Set)
			r.seenOutput[t.Source] = seen
		}
		r.lastSrc, r.lastSeen = t.Source, seen
	}
	if !seen.Add(t.Seq) {
		r.outMu.Unlock()
		r.duplicates.Add(1)
		return
	}
	r.outMu.Unlock()
	r.sink.Observe(int64(r.clk.Now() - t.Created))
	if r.cfg.OnSinkOutput != nil {
		r.cfg.OnSinkOutput(publisher, t)
	}
}

// DuplicateOutputs reports how many duplicate sink results were suppressed.
func (r *Region) DuplicateOutputs() int64 { return r.duplicates.Load() }

// WiFi exposes the region's medium (byte counters for Fig. 10b).
func (r *Region) WiFi() *simnet.WiFi { return r.wifi }

// Graph returns the region's query network.
func (r *Region) Graph() *graph.Graph { return r.cfg.Graph }

// Scheme returns the region's fault-tolerance scheme.
func (r *Region) Scheme() ft.Scheme { return r.cfg.Scheme }

// ID returns the region name.
func (r *Region) ID() string { return r.cfg.ID }

// Node returns the node object currently hosting a phone ID.
func (r *Region) Node(id simnet.NodeID) *node.Node {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nodes[id]
}

// Placement returns the endpoint hosting a slot's primary, as the nodes
// say (hostOf): a failed host until its replacement takes over.
func (r *Region) Placement(slot string) (simnet.NodeID, bool) {
	s, ok := r.cfg.Graph.SlotID(slot)
	if !ok {
		return "", false
	}
	return r.hostOf(s).id, true
}

// AddPhone recruits a brand-new phone into a (possibly running) region as
// an idle member: it joins the WiFi medium and the cellular network, stores
// checkpoint data, and stands by as a replacement or migration target —
// the join half of churn.
func (r *Region) AddPhone(cfg phone.Config) simnet.NodeID {
	r.mu.Lock()
	r.joined++
	id := simnet.NodeID(fmt.Sprintf("%s/p%d", r.cfg.ID, r.cfg.Phones+r.joined))
	ph := phone.New(id, cfg)
	ep := simnet.NewEndpoint(id, simnet.DefaultInbox)
	st := storage.New()
	r.phones[id] = ph
	r.endpoints[id] = ep
	r.stores[id] = st
	r.wifi.Join(ep)
	if r.cfg.Cell != nil {
		r.cfg.Cell.Attach(ep)
	}
	n := r.buildNode(id, "", node.RoleIdle, nil)
	r.nodes[id] = n
	started := r.started && !r.stopped
	r.mu.Unlock()
	if started {
		n.Start()
	}
	return id
}

// NoteMigration records one completed planned migration.
func (r *Region) NoteMigration() { atomic.AddInt64(&r.migrations, 1) }

// LivePeers lists phones other than `self` that are present in the region
// (broadcast dissemination targets).
func (r *Region) LivePeers(self simnet.NodeID) []simnet.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []simnet.NodeID
	for id := range r.phones {
		if id != self && !r.failed[id] && !r.departed[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FailPhone crashes a phone: its node dies, its endpoint seals, its storage
// is lost, and it leaves the WiFi medium. Detection happens through the
// protocol (upstream send failures, controller pings), not this call.
func (r *Region) FailPhone(id simnet.NodeID) {
	r.mu.Lock()
	if r.failed[id] {
		r.mu.Unlock()
		return
	}
	r.failed[id] = true
	n := r.nodes[id]
	// The phone's rep-2 standby endpoints die with it, promoted or not.
	var standbys []simnet.NodeID
	for sid := range r.nodes {
		if strings.HasPrefix(string(sid), string(id)+"#sb#") {
			standbys = append(standbys, sid)
		}
	}
	sbNodes := make([]*node.Node, len(standbys))
	for i, sid := range standbys {
		sbNodes[i] = r.nodes[sid]
	}
	r.mu.Unlock()
	if n != nil {
		n.Fail()
	}
	for i, sb := range sbNodes {
		sb.Fail()
		r.wifi.SetPresent(standbys[i], false)
	}
	r.wifi.SetPresent(id, false)
	r.noteDomainLoss(id)
	r.jot("phone.fail", "", 0, string(id))
}

// DepartPhone moves a phone out of WiFi range; it keeps running and stays
// reachable over cellular (§III-E).
func (r *Region) DepartPhone(id simnet.NodeID) {
	r.mu.Lock()
	r.departed[id] = true
	if ph := r.phones[id]; ph != nil {
		ph.SetPosition(phone.Position{X: 1e6, Y: 1e6})
	}
	r.mu.Unlock()
	r.wifi.SetPresent(id, false)
	r.noteDomainLoss(id)
	r.jot("phone.depart", "", 0, string(id))
}

// noteDomainLoss records a phone loss (failure or departure) against its
// WiFi channel domain for the placement forecaster's departure-rate input.
func (r *Region) noteDomainLoss(id simnet.NodeID) {
	ch, ok := r.wifi.ChannelOf(id)
	if !ok {
		return
	}
	r.mu.Lock()
	if len(r.domainDeparts) < r.wifi.Channels() {
		next := make([]int64, r.wifi.Channels())
		copy(next, r.domainDeparts)
		r.domainDeparts = next
	}
	r.domainDeparts[ch]++
	r.mu.Unlock()
}

// Failed reports whether a phone has failed.
func (r *Region) Failed(id simnet.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed[id]
}

// Departed reports whether a phone has departed.
func (r *Region) Departed(id simnet.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.departed[id]
}

// Unregister removes a departed/failed phone from the region entirely.
func (r *Region) Unregister(id simnet.NodeID) {
	r.mu.Lock()
	delete(r.phones, id)
	delete(r.nodes, id)
	r.wifi.Remove(id)
	r.mu.Unlock()
}

// InboxDrops sums endpoint inbox-overflow losses across the region: UDP-
// semantics deliveries (checkpoint broadcasts, preservation replicas) that
// arrived while a receiver's inbox was full. Until surfaced here they were
// dropped silently, indistinguishable from modelled WiFi loss.
func (r *Region) InboxDrops() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, ep := range r.endpoints {
		total += ep.Drops()
	}
	return total
}

// PreservedBytes sums the region's preservation storage (Fig. 10a): source
// logs counted once at their owners plus edge retention at every node.
func (r *Region) PreservedBytes() (source, edge int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.stores {
		s, e := st.CumulativePreservedBytes()
		source += s
		edge += e
	}
	return source, edge
}

// Store returns a phone's storage (tests, storage metrics).
func (r *Region) Store(id simnet.NodeID) *storage.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stores[id]
}

// Phone returns a phone device.
func (r *Region) Phone(id simnet.NodeID) *phone.Phone {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phones[id]
}

// Members lists the registered phones, sorted: every phone not yet
// unregistered, whether or not it failed or departed.
func (r *Region) Members() []simnet.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]simnet.NodeID, 0, len(r.phones))
	for id := range r.phones {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// AlivePhones lists phones that have neither failed nor departed.
func (r *Region) AlivePhones() []simnet.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []simnet.NodeID
	for id := range r.phones {
		if !r.failed[id] && !r.departed[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
