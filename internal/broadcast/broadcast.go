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
	"fmt"
	"sort"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/simnet"
)

// Config parameterises the protocol.
type Config struct {
	// BlockSize is the UDP block payload size (paper: 1 KB; large UDP
	// datagrams fragment and die on lossy media).
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

func (c *Config) applyDefaults() {
	if c.BlockSize <= 0 {
		c.BlockSize = 1024
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
}

// Medium is the slice of the WiFi API the protocol needs; *simnet.WiFi
// implements it, and tests substitute scripted media to reproduce the
// paper's Fig. 6 walk-through exactly.
type Medium interface {
	BroadcastBatch(from simnet.NodeID, class simnet.Class, grams []simnet.Datagram) []int
	Request(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) (chan simnet.Message, error)
	Unicast(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) error
}

// Waiter lets the sender bound its bitmap-query waits; clock.Clock
// implements it.
type Waiter interface {
	After(d time.Duration) <-chan time.Duration
}

// BlockMsg is one UDP checkpoint block on the wire. Blob is an in-memory
// reference: the simulation charges the network by size, while receivers
// reconstruct availability from block arrivals.
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
}

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
	Forward []FillEdge
}

// FillEdge is one parent->child relay instruction.
type FillEdge struct {
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
func Disseminate(m Medium, w Waiter, from simnet.NodeID, peers []simnet.NodeID, blob *checkpoint.Blob, cfg Config) Stats {
	cfg.applyDefaults()
	var st Stats

	total := numBlocks(blob.Size, cfg.BlockSize)
	reachable := append([]simnet.NodeID(nil), peers...)
	sort.Slice(reachable, func(i, j int) bool { return reachable[i] < reachable[j] })
	if len(reachable) == 0 {
		return st
	}

	// bitmaps[peer][i] reports whether peer holds block i, per the most
	// recent query round.
	bitmaps := make(map[simnet.NodeID][]bool, len(reachable))
	for _, p := range reachable {
		bitmaps[p] = make([]bool, total)
	}
	prevReceived := int64(0)

	toSend := make([]int, total)
	for i := range toSend {
		toSend[i] = i
	}

	// grams is reused across phases; BroadcastBatch reserves airtime one
	// chunk at a time, so long block bursts interleave with concurrent
	// data-batch unicasts instead of monopolising the medium.
	grams := make([]simnet.Datagram, 0, total)

	for phase := 1; phase <= maxUDPPhases && len(toSend) > 0 && len(reachable) > 0; phase++ {
		st.UDPPhases = phase
		grams = grams[:len(toSend)]
		sent := int64(0)
		for gi, bi := range toSend {
			sz := blockBytes(blob.Size, cfg.BlockSize, bi)
			if sz <= 0 {
				sz = 1
			}
			grams[gi] = simnet.Datagram{Size: sz, Payload: BlockMsg{Slot: blob.Slot, Version: blob.Version, Index: bi, Total: total, Blob: blob,
				CRC: checkpoint.ChunkCRC(blob.CRC, bi)}}
			sent += int64(sz)
		}
		m.BroadcastBatch(from, simnet.ClassCheckpoint, grams)
		st.UDPBytes += sent

		// Query every reachable peer for its bitmap.
		bitmapBytes := int64(0)
		var stillReachable []simnet.NodeID
		for _, p := range reachable {
			bm, n, err := queryBitmap(m, w, from, p, blob, total, cfg)
			if err != nil {
				st.Unreachable = append(st.Unreachable, p)
				continue
			}
			bitmaps[p] = bm
			bitmapBytes += int64(n)
			stillReachable = append(stillReachable, p)
		}
		reachable = stillReachable
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
			for i, got := range bitmaps[p] {
				if got {
					received += int64(blockBytes(blob.Size, cfg.BlockSize, i))
				}
			}
		}
		gain := received - prevReceived
		cost := sent + bitmapBytes
		prevReceived = received

		toSend = missingBlocks(bitmaps, reachable, total)
		if len(toSend) == 0 || cost > gain {
			break
		}
	}

	// Final reliable phase: fill remaining holes over a TCP tree rooted
	// at the first peer (§III-C). Each edge carries the union of blocks
	// missing in the child's subtree.
	if len(reachable) > 0 {
		tcp, complete, unreachable := tcpFill(m, from, reachable, bitmaps, blob, total, cfg)
		st.TCPBytes = tcp
		st.Complete = complete
		st.Unreachable = append(st.Unreachable, unreachable...)
	}
	return st
}

func queryBitmap(m Medium, w Waiter, from, peer simnet.NodeID, blob *checkpoint.Blob, total int, cfg Config) ([]bool, int, error) {
	reply, err := m.Request(from, peer, simnet.ClassBitmap, queryBytes, QueryMsg{Slot: blob.Slot, Version: blob.Version, Total: total})
	if err != nil {
		return nil, 0, err
	}
	select {
	case msg := <-reply:
		bm, ok := msg.Payload.([]bool)
		if !ok || len(bm) != total {
			return nil, 0, fmt.Errorf("broadcast: bad bitmap from %s", peer)
		}
		return bm, msg.Size, nil
	case <-w.After(cfg.QueryTimeout):
		return nil, 0, fmt.Errorf("broadcast: bitmap query to %s timed out", peer)
	}
}

// missingBlocks ANDs the bitmaps: a block is missing if at least one
// reachable peer lacks it.
func missingBlocks(bitmaps map[simnet.NodeID][]bool, reachable []simnet.NodeID, total int) []int {
	var missing []int
	for i := 0; i < total; i++ {
		for _, p := range reachable {
			if !bitmaps[p][i] {
				missing = append(missing, i)
				break
			}
		}
	}
	return missing
}

// BitmapWireBytes is the on-the-wire size of a bitmap for `total` blocks.
func BitmapWireBytes(total int) int { return (total + 7) / 8 }

// tcpFill organises sender+peers into a tree (sender -> root -> ...) and
// pushes each subtree's missing-block union down edge by edge. The sender
// orchestrates the relay sends; airtime is charged per hop with the actual
// relaying parent as the transmitter, which is what the medium model needs.
func tcpFill(m Medium, from simnet.NodeID, peers []simnet.NodeID, bitmaps map[simnet.NodeID][]bool, blob *checkpoint.Blob, total int, cfg Config) (tcpBytes int64, complete, unreachable []simnet.NodeID) {
	// missing per peer
	need := make(map[simnet.NodeID][]int, len(peers))
	for _, p := range peers {
		var miss []int
		for i := 0; i < total; i++ {
			if !bitmaps[p][i] {
				miss = append(miss, i)
			}
		}
		need[p] = miss
	}

	// Binary tree over peers in sorted order: peers[0] is the root,
	// children of peers[i] are peers[2i+1], peers[2i+2].
	subtreeNeed := make([]map[int]bool, len(peers))
	var gather func(i int) map[int]bool
	gather = func(i int) map[int]bool {
		u := make(map[int]bool, len(need[peers[i]]))
		for _, b := range need[peers[i]] {
			u[b] = true
		}
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(peers) {
				for b := range gather(c) {
					u[b] = true
				}
			}
		}
		subtreeNeed[i] = u
		return u
	}
	gather(0)

	dead := make(map[simnet.NodeID]bool)
	// BFS down the tree: edge (parent -> child) carries subtreeNeed[child].
	type edge struct {
		parent simnet.NodeID
		child  int
	}
	queue := []edge{{from, 0}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		child := peers[e.child]
		union := subtreeNeed[e.child]
		if dead[e.parent] {
			// Relay chain broken: the subtree is unreachable this round;
			// children inherit the broken parent.
			dead[child] = true
		} else if len(union) > 0 {
			indices := make([]int, 0, len(union))
			bytes := 0
			for b := range union {
				indices = append(indices, b)
				bytes += blockBytes(blob.Size, cfg.BlockSize, b)
			}
			sort.Ints(indices)
			crcs := make([]uint32, len(indices))
			for k, b := range indices {
				crcs[k] = checkpoint.ChunkCRC(blob.CRC, b)
			}
			err := m.Unicast(e.parent, child, simnet.ClassCheckpoint, bytes,
				FillMsg{Slot: blob.Slot, Version: blob.Version, Total: total, Indices: indices, CRCs: crcs, Blob: blob})
			if err != nil {
				dead[child] = true
			} else {
				tcpBytes += int64(bytes)
			}
		}
		for _, c := range []int{2*e.child + 1, 2*e.child + 2} {
			if c < len(peers) {
				queue = append(queue, edge{child, c})
			}
		}
	}
	for _, p := range peers {
		if dead[p] {
			unreachable = append(unreachable, p)
		} else {
			complete = append(complete, p)
		}
	}
	return tcpBytes, complete, unreachable
}
