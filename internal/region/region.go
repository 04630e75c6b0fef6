// Package region implements one region's cluster runtime (Fig. 4, low
// level): the phones in WiFi range, the placement of slots onto phones, the
// per-region metrics, and the fault hooks (failure, departure) that the
// controller reacts to.
package region

import (
	"fmt"
	"sort"
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
	// graph's slots (plus one per slot for rep-2 standbys).
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

	// placeEpoch counts placement/standby changes: every repoint bumps
	// it, invalidating the nodes' route caches and this region's ingest
	// snapshot. Read lock-free on every cached resolution.
	placeEpoch uint64
	// ingest is the epoch-stamped source-dispatch snapshot Ingest reads
	// lock-free on the steady-state path.
	ingest atomic.Pointer[ingestSnapshot]
	// stopping mirrors `stopped` for the lock-free ingest path.
	stopping atomic.Bool

	// keyed maps each logical keyed operator to its shared elastic group
	// (instance IDs + live partition table). The map is immutable after
	// New; the groups themselves are concurrency-safe. Every node hosting
	// the graph shares these pointers, so installing a successor table
	// flips routing everywhere at once.
	keyed map[string]*keyed.Group
	// splitMu serialises split/merge reconfigurations per region.
	splitMu sync.Mutex

	mu sync.Mutex
	// phones are physical devices, keyed by phone ID. nodes/endpoints/
	// stores are keyed by endpoint ID: a phone's primary endpoint shares
	// the phone's ID, while a rep-2 standby on that phone gets its own
	// endpoint identity (standbyKey) so the two inboxes never race.
	phones       map[simnet.NodeID]*phone.Phone
	nodes        map[simnet.NodeID]*node.Node
	stores       map[simnet.NodeID]*storage.Store
	endpoints    map[simnet.NodeID]*simnet.Endpoint
	placement    map[string]simnet.NodeID // slot -> endpoint ID
	standby      map[string]simnet.NodeID // slot -> standby endpoint ID
	standbyPhone map[string]simnet.NodeID // slot -> standby's phone ID
	idle         []simnet.NodeID
	departed     map[simnet.NodeID]bool
	failed       map[simnet.NodeID]bool
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
		cfg:          cfg,
		clk:          cfg.Clock,
		wifi:         simnet.NewWiFi(cfg.Clock, cfg.WiFi),
		phones:       make(map[simnet.NodeID]*phone.Phone),
		nodes:        make(map[simnet.NodeID]*node.Node),
		stores:       make(map[simnet.NodeID]*storage.Store),
		endpoints:    make(map[simnet.NodeID]*simnet.Endpoint),
		placement:    make(map[string]simnet.NodeID),
		standby:      make(map[string]simnet.NodeID),
		standbyPhone: make(map[string]simnet.NodeID),
		departed:     make(map[simnet.NodeID]bool),
		failed:       make(map[simnet.NodeID]bool),
		seenOutput:   make(map[string]*seqset.Set),
		telePrev:     make(map[simnet.NodeID]telePoint),
		keyed:        make(map[string]*keyed.Group),
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
	}

	ids := make([]simnet.NodeID, cfg.Phones)
	for i := range ids {
		ids[i] = simnet.NodeID(fmt.Sprintf("%s/p%d", cfg.ID, i+1))
	}
	for i, slot := range slots {
		r.placement[slot] = ids[i]
		if cfg.Scheme.Replicated() {
			sbPhone := ids[(i+1)%cfg.Phones]
			r.standbyPhone[slot] = sbPhone
			r.standby[slot] = simnet.NodeID(standbyKey(sbPhone, slot))
		}
	}
	hosted := make(map[simnet.NodeID]bool)
	for _, p := range r.placement {
		hosted[p] = true
	}
	for _, p := range r.standbyPhone {
		hosted[p] = true
	}
	for _, id := range ids {
		if !hosted[id] {
			r.idle = append(r.idle, id)
		}
	}

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
	for _, slot := range slots {
		pid := r.placement[slot]
		r.nodes[pid] = r.buildNode(pid, slot, node.RolePrimary)
	}
	if cfg.Scheme.Replicated() {
		for _, slot := range slots {
			r.buildStandby(slot)
		}
	}
	for _, id := range r.idle {
		r.nodes[id] = r.buildNode(id, "", node.RoleIdle)
	}
	return r, nil
}

func standbyKey(phoneID simnet.NodeID, slot string) string {
	return string(phoneID) + "#sb#" + slot
}

// buildNode constructs the node runtime for a phone hosting slot (or idle).
func (r *Region) buildNode(id simnet.NodeID, slot string, role node.Role) *node.Node {
	var opIDs []string
	if slot != "" {
		opIDs = r.cfg.Graph.OpsOnSlot(slot)
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
		Resolver:          (*resolver)(r),
		ControllerID:      r.cfg.ControllerID,
		Peers:             func() []simnet.NodeID { return r.LivePeers(id) },
		DistPeers:         r.distPeersFor(slot),
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
// standby phone (sharing its CPU and battery) but has its own endpoint
// identity, so replication traffic is addressed to it directly.
func (r *Region) buildStandby(slot string) {
	sbPhone := r.standbyPhone[slot]
	sbID := r.standby[slot]
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
		Resolver:     (*resolver)(r),
		ControllerID: r.cfg.ControllerID,
		QoS:          r.cfg.QoS,
		Keyed:        r.keyed,
		Obs:          r.obs,
		OnSinkOutput: func(t *tuple.Tuple) { r.onSink(sbID, t) },
	})
	r.nodes[sbID] = n
}

// resolver adapts the region's placement maps to the node's epochResolver
// interface: nodes cache resolutions per slot and invalidate on epoch
// bumps, so the region mutex leaves the per-tuple path.
type resolver Region

// Primary implements the node's resolver.
func (rs *resolver) Primary(slot string) (simnet.NodeID, bool) {
	r := (*Region)(rs)
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.placement[slot]
	return id, ok
}

// Standby implements the node's resolver.
func (rs *resolver) Standby(slot string) (simnet.NodeID, bool) {
	r := (*Region)(rs)
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.standby[slot]
	return id, ok
}

// Epoch implements the node's epochResolver.
func (rs *resolver) Epoch() uint64 {
	return atomic.LoadUint64(&(*Region)(rs).placeEpoch)
}

// bumpEpoch invalidates every cached resolution after a placement or
// standby change.
func (r *Region) bumpEpoch() { atomic.AddUint64(&r.placeEpoch, 1) }

// distPeersFor assigns the n unicast persistence targets for a slot under
// dist-n: the next n phones in ring order.
func (r *Region) distPeersFor(slot string) []simnet.NodeID {
	if r.cfg.Scheme.Kind != ft.DistN || slot == "" {
		return nil
	}
	slots := r.cfg.Graph.Slots()
	idx := sort.SearchStrings(slots, slot)
	var ids []simnet.NodeID
	all := r.allPhoneIDs()
	self := r.placement[slot]
	for i := 1; len(ids) < r.cfg.Scheme.N && i <= len(all); i++ {
		cand := all[(idx+i)%len(all)]
		if cand != self {
			ids = append(ids, cand)
		}
	}
	return ids
}

func (r *Region) allPhoneIDs() []simnet.NodeID {
	ids := make([]simnet.NodeID, 0, len(r.phones))
	for id := range r.phones {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
// ID and sequence counter.
type ingestSource struct {
	name string
	op   graph.OpID
	seq  atomic.Uint64
}

// ingestSnapshot is the epoch-stamped dispatch table Ingest reads without
// taking the region mutex: per source operator (index-parallel with
// Region.sources), the node currently hosting its slot.
type ingestSnapshot struct {
	epoch   uint64
	targets []*node.Node
}

// ingestTargetFor resolves a source and its current host, rebuilding the
// snapshot under the mutex when the placement epoch moved. A graph has a
// handful of sources, so a scan beats hashing the name.
func (r *Region) ingestTargetFor(srcOp string) (*ingestSource, *node.Node) {
	src := -1
	for i := range r.sources {
		if r.sources[i].name == srcOp {
			src = i
			break
		}
	}
	if src < 0 {
		return nil, nil
	}
	epoch := atomic.LoadUint64(&r.placeEpoch)
	if snap := r.ingest.Load(); snap != nil && snap.epoch == epoch {
		return &r.sources[src], snap.targets[src]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Re-read the epoch under the mutex: placement writes bump it inside
	// the same critical section, so the rebuilt snapshot is stamped with
	// exactly the epoch of the maps it copies.
	epoch = atomic.LoadUint64(&r.placeEpoch)
	snap := &ingestSnapshot{epoch: epoch, targets: make([]*node.Node, len(r.sources))}
	for i := range r.sources {
		if pid, placed := r.placement[r.cfg.Graph.SlotOf(r.sources[i].name)]; placed {
			snap.targets[i] = r.nodes[pid]
		}
	}
	r.ingest.Store(snap)
	return &r.sources[src], snap.targets[src]
}

// Ingest admits one external tuple at the named source operator, assigning
// its per-source sequence number and timestamp. The workload driver and the
// inter-region path both enter here. The steady-state path is lock-free:
// the dispatch table is cached per placement epoch and sequence numbers
// advance atomically, so concurrent sources do not serialise on the region
// mutex.
func (r *Region) Ingest(srcOp string, value interface{}, size int, kind string) {
	if r.stopping.Load() {
		return
	}
	source, host := r.ingestTargetFor(srcOp)
	if host == nil {
		return
	}
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

// Placement returns the phone currently hosting a slot.
func (r *Region) Placement(slot string) (simnet.NodeID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.placement[slot]
	return id, ok
}

// SetPlacement points a slot at a new phone (recovery/mobility), bumping
// the placement epoch so cached routes re-resolve. The bump happens under
// the mutex so snapshot rebuilds that read the epoch under the same mutex
// observe map and epoch consistently.
func (r *Region) SetPlacement(slot string, id simnet.NodeID) {
	r.mu.Lock()
	r.placement[slot] = id
	r.bumpEpoch()
	r.mu.Unlock()
	r.jot("place.set", slot, 0, string(id))
}

// PromoteStandby makes the standby the primary for a slot (rep-2 failover)
// and returns the promoted node, or nil. The node's role flips before the
// placement map points at it: the moment upstream retries resolve the new
// primary, a whole in-flight batch may land and execute, and a node still
// in standby role would suppress every emission in it.
func (r *Region) PromoteStandby(slot string) *node.Node {
	r.mu.Lock()
	sid, ok := r.standby[slot]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	n := r.nodes[sid]
	r.mu.Unlock()
	if n != nil {
		n.Promote()
	}
	r.mu.Lock()
	r.placement[slot] = sid
	delete(r.standby, slot)
	delete(r.standbyPhone, slot)
	r.bumpEpoch()
	r.mu.Unlock()
	r.jot("standby.promote", slot, 0, string(sid))
	return n
}

// ActiveSlots returns all slots with a current placement, sorted.
func (r *Region) ActiveSlots() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	slots := make([]string, 0, len(r.placement))
	for s := range r.placement {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	return slots
}

// SlotsOn returns the slots whose primary is the given phone.
func (r *Region) SlotsOn(id simnet.NodeID) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var slots []string
	for s, p := range r.placement {
		if p == id {
			slots = append(slots, s)
		}
	}
	sort.Strings(slots)
	return slots
}

// ClaimIdle removes a specific phone from the idle pool (the planner's
// chosen migration target). It returns false when the phone is not idle or
// no longer healthy.
func (r *Region) ClaimIdle(id simnet.NodeID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, cand := range r.idle {
		if cand != id {
			continue
		}
		r.idle = append(r.idle[:i], r.idle[i+1:]...)
		return !r.failed[id] && !r.departed[id]
	}
	return false
}

// ReleaseToIdle returns a phone to the idle pool (a claimed migration
// target whose migration was abandoned, or an evacuated phone that turned
// out healthy).
func (r *Region) ReleaseToIdle(id simnet.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cand := range r.idle {
		if cand == id {
			return
		}
	}
	r.idle = append(r.idle, id)
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
	n := r.buildNode(id, "", node.RoleIdle)
	r.nodes[id] = n
	r.idle = append(r.idle, id)
	started := r.started && !r.stopped
	r.mu.Unlock()
	if started {
		n.Start()
	}
	return id
}

// NoteMigration records one completed planned migration.
func (r *Region) NoteMigration() { atomic.AddInt64(&r.migrations, 1) }

// IdlePhones lists the available replacement phones in the order recovery
// and handoff planning take them.
func (r *Region) IdlePhones() []simnet.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []simnet.NodeID
	for _, id := range r.idle {
		if !r.failed[id] && !r.departed[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

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
	var standbys []*node.Node
	var standbyIDs []simnet.NodeID
	for slot, sbPhone := range r.standbyPhone {
		if sbPhone == id {
			sid := r.standby[slot]
			standbys = append(standbys, r.nodes[sid])
			standbyIDs = append(standbyIDs, sid)
		}
	}
	r.mu.Unlock()
	if n != nil {
		n.Fail()
	}
	for i, sb := range standbys {
		if sb != nil {
			sb.Fail()
		}
		r.wifi.SetPresent(standbyIDs[i], false)
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

// FailedPhoneCount reports how many phones have failed so far — the burst
// size a scheme's tolerance is judged against.
func (r *Region) FailedPhoneCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failed)
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

// ActivateReplacement turns an idle phone's node into the host for slot.
func (r *Region) ActivateReplacement(id simnet.NodeID, slot string) {
	r.mu.Lock()
	n := r.nodes[id]
	r.mu.Unlock()
	if n != nil {
		n.Activate(slot)
	}
	r.SetPlacement(slot, id)
	r.jot("replace.activate", slot, 0, string(id))
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

// Store returns a phone's storage (tests, recovery planning).
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

// BlobHolders returns alive phones whose store can restore (version, slot)
// — recovery planning for dist-n. A phone holding a delta link without its
// base chain cannot serve the restore, so only complete chains count;
// torn uploads are discarded from planning.
func (r *Region) BlobHolders(version uint64, slot string) []simnet.NodeID {
	var holders []simnet.NodeID
	for _, id := range r.AlivePhones() {
		st := r.Store(id)
		if st == nil || st.Lost() {
			continue
		}
		if st.HasChain(version, slot) {
			holders = append(holders, id)
		}
	}
	return holders
}
