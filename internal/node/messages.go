package node

import (
	"mobistreams/internal/checkpoint"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// streamMsg is a data-plane message on a slot-to-slot edge. Each ordered
// pair of slots forms one FIFO stream carrying tuples and in-band markers,
// sequenced by EdgeSeq for duplicate suppression after recovery resends.
// Trace carries the sampled tracing context (zero = untraced). Slots and
// operators travel as the graph's dense IDs (graph.NoOp on markers), which
// every node numbers identically, and keep the message within the 64 bytes
// the compiler copies inline (TestDataPathItemSizes).
type streamMsg struct {
	FromSlot, ToSlot graph.SlotID
	FromOp, ToOp     graph.OpID
	EdgeSeq          uint64
	Trace            obs.SpanCtx
	Item             tuple.Item
}

// batchMsg coalesces several streamMsgs bound for the same destination
// slot into one network send, amortising the per-message medium, lock and
// channel overhead of the ingress hot path. Messages appear in emission
// order; the receiver unbatches them into upstream queues under one lock.
// Every flush, one message or many, travels as a pooled *batchMsg (see
// batchPool).
type batchMsg struct {
	Msgs []streamMsg
}

// wireSize sums the payload bytes the network charges for the batch.
func (b *batchMsg) wireSize() int {
	total := 0
	for i := range b.Msgs {
		total += b.Msgs[i].Item.WireSize()
	}
	return total
}

// preserveMsg replicates one run of admitted source tuples (see
// popRunLocked) to every phone in the region as a single UDP best-effort
// datagram (a *preserveMsg), so the replay log survives source failures. Ts
// is shared by the sender's log append and every receiver: all of them only
// read it.
type preserveMsg struct {
	Version uint64
	Source  string
	Ts      []*tuple.Tuple
}

// InterRegionMsg carries a result tuple from an upstream region's sink to
// this region's source node over the cellular network (Fig. 4).
type InterRegionMsg struct {
	SrcOp string
	Kind  string
	Size  int
	Value interface{}
}

// distBlobMsg carries a whole checkpoint blob to one peer (dist-n unicast
// persistence).
type distBlobMsg struct {
	Blob *checkpoint.Blob
}

// transferMsg carries a departing node's state — snapshot plus queued
// input — to its replacement over the cellular network (§III-E). Pending
// holds the queued-but-unprocessed stream items, parked ones included, so
// no in-flight tuple is lost to mobility.
type transferMsg struct {
	Slot    string
	Blob    *checkpoint.Blob
	Pending []streamMsg
}

// KeyRangeMsg ships the [lo,hi) ranges a split or merge moves from a keyed
// group's donor instance to the recipient, state included, as one request
// the recipient answers. State carries the KeyedState.ExportRange framing
// (nil for routing-only groups whose operator keeps no keyed state).
type KeyRangeMsg struct {
	Logical string
	Ranges  [][2]string
	State   []byte
}

// fetchBlobReq asks a peer for a checkpoint blob (dist-n/local recovery).
type fetchBlobReq struct {
	Slot    string
	Version uint64
}

// resendReq asks an upstream slot to resend retained output with
// EdgeSeq > After (input preservation replay, dist-n/local recovery).
type resendReq struct {
	Downstream string
	After      uint64
}

// truncateMsg tells an upstream slot that the sender's checkpoint covering
// edge sequences <= Upto has committed, so retained output can be dropped.
type truncateMsg struct {
	Downstream string
	Upto       uint64
}

// Command is a controller-to-node instruction, delivered over cellular
// (ClassControl).
type Command struct {
	Op      CommandOp
	Version uint64
	Epoch   uint64
	Target  simnet.NodeID // handoff destination / fetch peer / split or merge recipient
	Slot    string
	Routes  *Routes // CmdRoutes: the table to install
}

// Answer is a node's reply to a request. A ping's carries the host's
// load, two 8-byte counters: its queued stream items and the data tuples
// it has executed. A split's or merge's, and a key-range import's, carry
// why it failed, empty when it did not.
type Answer struct {
	Backlog   int
	Processed uint64
	Err       string
}

// CommandOp enumerates controller commands.
type CommandOp int

const (
	// CmdToken makes a source slot inject a checkpoint token (§III-B
	// step 1).
	CmdToken CommandOp = iota
	// CmdSnapshot makes a node snapshot now (local/dist-n periodic
	// checkpointing).
	CmdSnapshot
	// CmdCommit announces a fully committed checkpoint version.
	CmdCommit
	// CmdPause stops tuple processing at the next boundary.
	CmdPause
	// CmdResume restarts tuple processing.
	CmdResume
	// CmdRestore reloads operator state for Version from local storage.
	CmdRestore
	// CmdReplay makes a source slot replay preserved input from Version
	// and then emit a replay-end marker with Epoch.
	CmdReplay
	// CmdPromote promotes a rep-2 standby to primary; the node answers
	// once it is one.
	CmdPromote
	// CmdHandoff makes a departing node transfer state to Target.
	CmdHandoff
	// CmdFetchRestore makes a replacement fetch Version's blob for Slot
	// from peer Target (its own store if Target equals itself), restore,
	// and request upstream resends.
	CmdFetchRestore
	// CmdPing is the controller liveness probe (§III-D).
	CmdPing
	// CmdSplit makes a keyed instance hand the upper half of its most
	// populated range to the instance on Slot, hosted by Target; CmdMerge
	// makes it hand over every range it owns and go dormant.
	CmdSplit
	CmdMerge
	// CmdRoutes installs Routes, unless the node holds a newer table.
	CmdRoutes
	// CmdActivate makes an idle node host Slot (a recovery replacement);
	// the node answers once it does.
	CmdActivate
	// The node's own lifecycle commands (lifecycle.go), never sent.
	cmdTransferIn
	cmdReplayEnd
	cmdFail
	cmdStop
)

var cmdNames = [...]string{"token", "snapshot", "commit", "pause", "resume",
	"restore", "replay", "promote", "handoff", "fetch-restore", "ping",
	"split", "merge", "routes", "activate", "transfer-in", "replay-end", "fail", "stop"}

func (c CommandOp) String() string {
	if int(c) < len(cmdNames) {
		return cmdNames[c]
	}
	return "cmd(?)"
}

// Report is a node-to-controller notification, delivered over cellular
// (ClassControl).
type Report struct {
	Type     reportType
	Phone    simnet.NodeID
	Slot     string
	Version  uint64
	Epoch    uint64
	Holders  []simnet.NodeID // dist-n persisted: the peers holding Version's chain
	Observed simnet.NodeID   // failed/unreachable phone for failure reports
	Err      string
}

// reportType enumerates node reports.
type reportType int

const (
	// RepCheckpointed: the node snapshotted Version (sink slots reporting
	// this is the token percolating back to the controller).
	RepCheckpointed reportType = iota
	// RepPersisted: the node's Version blob is persisted (under dist-n,
	// on Holders).
	RepPersisted
	// RepFailure: a downstream neighbour is unreachable.
	RepFailure
	// repUrgent: the node fell back to cellular for a data edge.
	repUrgent
	// RepCatchUpDone: a sink finished catch-up for Epoch.
	RepCatchUpDone
	// RepChronicBattery: the node's battery is at chronic level.
	RepChronicBattery
	// repHandoffDone: a departing node finished transferring state.
	repHandoffDone
	// RepRestored: the node finished a restore command.
	RepRestored
)

var repNames = [...]string{"checkpointed", "persisted", "failure", "urgent",
	"catchup-done", "chronic-battery", "handoff-done", "restored"}

func (r reportType) String() string {
	if int(r) < len(repNames) {
		return repNames[r]
	}
	return "report(?)"
}
