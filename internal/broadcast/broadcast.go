// Package broadcast implements MobiStreams' broadcast-based checkpointing
// (§III-C, Fig. 6): checkpoint state is partitioned into ~1 KB blocks and
// disseminated to every phone in the region with multi-phase UDP
// broadcasting; after each phase the sender queries every receiver for a
// reception bitmap, re-broadcasts the blocks some receiver is missing, and
// stops when the phase's cost (bytes sent plus bitmap bytes received)
// exceeds its gain (bytes newly received across all receivers). A final
// reliable TCP phase over a tree fills the remaining holes.
package broadcast

import (
	"errors"
	"slices"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/simnet"
)

// Config parameterises the protocol.
type Config struct {
	// BlockSize is the UDP block payload size (default DefaultBlockSize,
	// the paper's 1 KB; large UDP datagrams fragment and die on lossy
	// media).
	BlockSize int
	// QueryTimeout bounds how long the sender waits for one bitmap
	// response before writing the peer off (simulated time).
	QueryTimeout time.Duration
}

// maxUDPPhases bounds the UDP stage as a safety net; the cost/gain rule
// normally terminates it first.
const maxUDPPhases = 16

// queryBytes is the size of a bitmap query message.
const queryBytes = 64

// DefaultBlockSize is the paper's 1 KB UDP block.
const DefaultBlockSize = 1024

func (c *Config) applyDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
}

// medium is the slice of the WiFi API the protocol needs; *simnet.WiFi
// implements it, and tests substitute scripted media to reproduce the
// paper's Fig. 6 walk-through exactly.
type medium interface {
	BroadcastBatch(from simnet.NodeID, class simnet.Class, grams []simnet.Datagram) int
	Request(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}, reply chan simnet.Message) error
	Unicast(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) error
}

// waiter makes the timer that bounds the sender's bitmap-query waits;
// clock.Clock implements it.
type waiter interface {
	NewTimer(d time.Duration) clock.Timer
}

// BlockMsg is one UDP checkpoint block on the wire; datagrams carry it as
// *BlockMsg (see DisseminateUntil). Blob is an in-memory reference: the
// simulation charges the network by size, while receivers reconstruct
// availability from block arrivals.
type BlockMsg struct {
	Slot    string
	Version uint64
	Index   int
	Total   int
	Blob    *checkpoint.Blob
	// CRC is the chunk checksum (checkpoint.ChunkCRC over the blob CRC and
	// the index): a chunk spliced from a different blob or stream position
	// fails verification at the receiver and is left for retransmission.
	CRC uint32
}

// QueryMsg asks a receiver for its reception bitmap.
type QueryMsg struct {
	Slot    string
	Version uint64
	Total   int
	// into is the sender's buffer for this peer's answer: Receiver.Bitmap
	// copies into it instead of allocating. Like Blob, it is an in-memory
	// shortcut of the simulation, not a wire field.
	into []bool
}

// filled answers a QueryMsg whose bitmap the receiver copied into the
// query's buffer (Receiver.Answer). Unlike a []bool answer it boxes
// without allocating.
type filled struct{}

// FillMsg is a TCP-phase transfer of specific blocks along a tree edge.
type FillMsg struct {
	Slot    string
	Version uint64
	Total   int
	Indices []int
	// CRCs carries one chunk checksum per entry of Indices; an index
	// without one is skipped like a chunk that fails verification.
	CRCs []uint32
	Blob *checkpoint.Blob
	// Forward lists the remaining tree edges this node's subtree must
	// relay; the live system's receivers relay on arrival, while the
	// sender-orchestrated simulation performs the sends itself and
	// leaves Forward empty.
	Forward []fillEdge
}

// fillEdge is one parent->child relay instruction.
type fillEdge struct {
	From, To simnet.NodeID
	Indices  []int
}

// Stats summarises one dissemination.
type Stats struct {
	UDPPhases   int
	UDPBytes    int64
	BitmapBytes int64
	TCPBytes    int64
	// Complete lists peers that hold the full blob when Disseminate
	// returns; Unreachable lists peers that failed or departed mid-way.
	Complete    []simnet.NodeID
	Unreachable []simnet.NodeID
}

// blockBytes returns the size of block i of a blob of the given total size.
func blockBytes(size, blockSize, i int) int {
	off := i * blockSize
	if rem := size - off; rem < blockSize {
		return rem
	}
	return blockSize
}

// numBlocks returns how many blocks a blob of the given size needs.
func numBlocks(size, blockSize int) int {
	if size <= 0 {
		return 1 // an empty state still ships one descriptor block
	}
	return (size + blockSize - 1) / blockSize
}

// Disseminate persists blob from `from` onto every peer. It blocks (in
// simulated time) until the UDP phases and the TCP fill complete.
func Disseminate(m medium, w waiter, from simnet.NodeID, peers []simnet.NodeID, blob *checkpoint.Blob, cfg Config) Stats {
	st, _ := DisseminateUntil(nil, m, w, from, peers, blob, cfg)
	return st
}

// errStopped reports a dissemination cut short by its stop channel.
var errStopped = errors.New("broadcast: dissemination stopped")

// DisseminateUntil is Disseminate that gives up as soon as stop closes: a
// bitmap query waiting on a peer returns at once, and so does the
// dissemination, with the stats gathered so far and errStopped. A stopping
// node passes its stop channel, so teardown never waits out QueryTimeout on
// a peer that has already stopped answering.
//
// Every block message is carved, once per call, from one array filled
// before phase 1; each datagram carries a pointer into it. The array is
// never written again: later phases resend the same pointers while
// receivers may still be reading earlier ones. The per-peer query state is
// made once per call too, so a query round after a peer's first allocates
// nothing.
func DisseminateUntil(stop <-chan struct{}, m medium, w waiter, from simnet.NodeID, peers []simnet.NodeID, blob *checkpoint.Blob, cfg Config) (Stats, error) {
	cfg.applyDefaults()
	var st Stats

	total := numBlocks(blob.Size, cfg.BlockSize)
	ids := append([]simnet.NodeID(nil), peers...)
	slices.Sort(ids)
	if len(ids) == 0 {
		return st, nil
	}

	blocks := make([]BlockMsg, total)
	for i := range blocks {
		blocks[i] = BlockMsg{Slot: blob.Slot, Version: blob.Version, Index: i, Total: total, Blob: blob,
			CRC: checkpoint.ChunkCRC(blob.CRC, i)}
	}
	reachable := newPeers(ids, blob, total)
	prevReceived := int64(0)

	toSend := make([]int, total)
	for i := range toSend {
		toSend[i] = i
	}

	// grams is reused across phases; BroadcastBatch reserves airtime one
	// chunk at a time, so long block bursts interleave with concurrent
	// data-batch unicasts instead of monopolising the medium.
	grams := make([]simnet.Datagram, 0, total)
	// One timer bounds every bitmap query of the call; ask re-arms it.
	timeout := w.NewTimer(0)

	for phase := 1; phase <= maxUDPPhases && len(toSend) > 0 && len(reachable) > 0; phase++ {
		st.UDPPhases = phase
		grams = grams[:len(toSend)]
		sent := int64(0)
		for gi, bi := range toSend {
			sz := max(blockBytes(blob.Size, cfg.BlockSize, bi), 1)
			grams[gi] = simnet.Datagram{Size: sz, Payload: &blocks[bi]}
			sent += int64(sz)
		}
		m.BroadcastBatch(from, simnet.ClassCheckpoint, grams)
		st.UDPBytes += sent

		// Query every reachable peer for its bitmap.
		bitmapBytes := int64(0)
		still := 0
		for k := range reachable {
			n, err := reachable[k].ask(stop, m, timeout, from, cfg.QueryTimeout)
			if err == errStopped {
				return st, err
			}
			if err != nil {
				st.Unreachable = append(st.Unreachable, reachable[k].id)
				continue
			}
			bitmapBytes += int64(n)
			reachable[still] = reachable[k]
			still++
		}
		reachable = reachable[:still]
		st.BitmapBytes += bitmapBytes
		if len(reachable) == 0 {
			break
		}

		// Cost/gain evaluation in bytes (§III-C): cost is what this
		// phase put on the network that the sender accounts for (blocks
		// sent + bitmaps received); gain is bytes newly held across
		// receivers.
		received := int64(0)
		for _, p := range reachable {
			for i, got := range p.bitmap {
				if got {
					received += int64(blockBytes(blob.Size, cfg.BlockSize, i))
				}
			}
		}
		gain := received - prevReceived
		cost := sent + bitmapBytes
		prevReceived = received

		toSend = missingBlocks(toSend[:0], reachable, total)
		if len(toSend) == 0 || cost > gain {
			break
		}
	}

	// Final reliable phase: fill remaining holes over a TCP tree rooted
	// at the first peer (§III-C). Each edge carries the union of blocks
	// missing in the child's subtree.
	if len(reachable) > 0 {
		tcp, complete, unreachable := tcpFill(m, from, reachable, blob, total, cfg)
		st.TCPBytes = tcp
		st.Complete = complete
		st.Unreachable = append(st.Unreachable, unreachable...)
	}
	return st, nil
}

// peer is one receiver's query state for one dissemination. It is reused
// across phases only while the peer stays reachable: a timed-out peer may
// still answer late, into its bitmap and its reply channel, which nobody
// reads again.
type peer struct {
	id simnet.NodeID
	// bitmap is the peer's most recent answer, and the buffer it answers
	// into.
	bitmap []bool
	// query is the peer's QueryMsg, boxed once.
	query interface{}
	// reply has room for the one answer the peer can still send: a peer is
	// queried again only after its previous answer was read.
	reply chan simnet.Message
}

// newPeers makes the query state of every id, the bitmaps carved from one
// array.
func newPeers(ids []simnet.NodeID, blob *checkpoint.Blob, total int) []peer {
	peers := make([]peer, len(ids))
	rows := make([]bool, len(ids)*total)
	for k, id := range ids {
		bm := rows[k*total : (k+1)*total : (k+1)*total]
		peers[k] = peer{id: id, bitmap: bm, reply: make(chan simnet.Message, 1),
			query: QueryMsg{Slot: blob.Slot, Version: blob.Version, Total: total, into: bm}}
	}
	return peers
}

// ask queries the peer for its bitmap, waiting at most timeout on t, and
// reports the answer's wire size.
func (p *peer) ask(stop <-chan struct{}, m medium, t clock.Timer, from simnet.NodeID, timeout time.Duration) (int, error) {
	if err := m.Request(from, p.id, simnet.ClassBitmap, queryBytes, p.query, p.reply); err != nil {
		return 0, err
	}
	t.Reset(timeout)
	defer t.Stop()
	select {
	case msg := <-p.reply:
		if bm, ok := msg.Payload.([]bool); ok && len(bm) == len(p.bitmap) {
			copy(p.bitmap, bm) // no-op when the receiver answered into the buffer
		} else if _, ok := msg.Payload.(filled); !ok {
			return 0, errBadBitmap
		}
		return msg.Size, nil
	case <-t.C():
		return 0, errQueryTimeout
	case <-stop:
		return 0, errStopped
	}
}

var (
	errBadBitmap    = errors.New("broadcast: bad bitmap answer")
	errQueryTimeout = errors.New("broadcast: bitmap query timed out")
)

// missingBlocks appends to dst every block at least one peer lacks.
func missingBlocks(dst []int, peers []peer, total int) []int {
	for i := 0; i < total; i++ {
		for _, p := range peers {
			if !p.bitmap[i] {
				dst = append(dst, i)
				break
			}
		}
	}
	return dst
}

// BitmapWireBytes is the on-the-wire size of a bitmap for `total` blocks.
func BitmapWireBytes(total int) int { return (total + 7) / 8 }

// tcpFill organises sender+peers into a tree (sender -> root -> ...) and
// pushes each subtree's missing-block union down edge by edge. The sender
// orchestrates the relay sends; airtime is charged per hop with the actual
// relaying parent as the transmitter, which is what the medium model needs.
func tcpFill(m medium, from simnet.NodeID, peers []peer, blob *checkpoint.Blob, total int, cfg Config) (tcpBytes int64, complete, unreachable []simnet.NodeID) {
	// Binary tree over peers in sorted order: peers[0] is the root,
	// children of peers[i] are peers[2i+1], peers[2i+2]. Children sit
	// after their parent, so a backward pass folds each subtree's union
	// of missing blocks into its root's row.
	need := make([]bool, len(peers)*total)
	for i := len(peers) - 1; i >= 0; i-- {
		u := need[i*total : (i+1)*total]
		for b, got := range peers[i].bitmap {
			u[b] = !got
		}
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(peers) {
				for b, miss := range need[c*total : (c+1)*total] {
					u[b] = u[b] || miss
				}
			}
		}
	}

	// Breadth-first down the tree, which in this layout is index order:
	// edge (parent -> child) carries the child's subtree union. A child
	// whose edge fails, or whose parent is cut off, is cut off too.
	dead := make([]bool, len(peers))
	for i := range peers {
		child := peers[i].id
		parent, parentDead := from, false
		if i > 0 {
			parent, parentDead = peers[(i-1)/2].id, dead[(i-1)/2]
		}
		if parentDead {
			dead[i] = true
			continue
		}
		var indices []int
		bytes := 0
		for b, miss := range need[i*total : (i+1)*total] {
			if miss {
				indices = append(indices, b)
				bytes += blockBytes(blob.Size, cfg.BlockSize, b)
			}
		}
		if len(indices) == 0 {
			continue
		}
		crcs := make([]uint32, len(indices))
		for k, b := range indices {
			crcs[k] = checkpoint.ChunkCRC(blob.CRC, b)
		}
		err := m.Unicast(parent, child, simnet.ClassCheckpoint, bytes,
			FillMsg{Slot: blob.Slot, Version: blob.Version, Total: total, Indices: indices, CRCs: crcs, Blob: blob})
		if err != nil {
			dead[i] = true
		} else {
			tcpBytes += int64(bytes)
		}
	}
	complete = make([]simnet.NodeID, 0, len(peers))
	for i, p := range peers {
		if dead[i] {
			unreachable = append(unreachable, p.id)
		} else {
			complete = append(complete, p.id)
		}
	}
	return tcpBytes, complete, unreachable
}
