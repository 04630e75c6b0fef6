// Package checkpoint implements the token-triggered checkpointing protocol
// of §III-B: the alignment state machine each node runs, and the state blob
// a node produces when it checkpoints.
//
// The alignment rule (Fig. 5): a node checkpoints when it has received the
// token of the current version from every upstream neighbour. A channel
// whose token has arrived is stalled — the node stops consuming its tuples —
// so no tuple that follows the token can corrupt the pre-token state; the
// other channels keep flowing. With these cut semantics no tuple is saved
// twice or missed across the region snapshot.
//
// Beyond the paper, blobs form versioned chains: a full base blob followed
// by delta blobs whose operator entries are EncodePatch patches against the
// previous link (operators opt in through operator.DeltaSnapshotter).
// Restore materialises the chain back into a full blob; a CRC per blob (and
// per transport chunk, ChunkCRC) lets recovery discard torn uploads and
// pick the latest complete chain.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"

	"mobistreams/internal/operator"
)

// Blob is one node's checkpoint: the serialised state of every operator on
// the node plus runtime bookkeeping (edge sequence counters). Size is the
// modelled on-the-wire size used for network and storage accounting.
type Blob struct {
	Slot    string
	Version uint64
	// Base is the checkpoint version whose state this blob's delta entries
	// patch; 0 means the blob is a self-contained full snapshot.
	Base uint64
	Ops  map[string][]byte
	// DeltaOps marks which Ops entries are EncodePatch patches against the
	// Base blob's bytes rather than full serialised snapshots.
	DeltaOps map[string]bool
	Runtime  []byte
	Size     int
	// FullSize is the modelled size of the full state at this version —
	// what a restore reads from flash even when the blob itself travelled
	// as a small delta.
	FullSize int
	// CRC is the IEEE CRC-32 of the blob's encoded state. Chunked
	// transports derive per-chunk checksums from it (ChunkCRC); restores
	// verify it so a torn or corrupted upload is discarded rather than
	// replayed into an operator.
	CRC uint32
}

// IsDelta reports whether the blob needs a base chain to restore.
func (b *Blob) IsDelta() bool { return b.Base != 0 }

// EncodeState renders the blob's state deterministically (operator entries
// in sorted ID order, then runtime bytes) — the byte stream CRCs cover.
func (b *Blob) EncodeState() []byte {
	ids := make([]string, 0, len(b.Ops))
	total := len(b.Runtime)
	for id, data := range b.Ops {
		ids = append(ids, id)
		total += 8 + len(id) + len(data)
	}
	sort.Strings(ids)
	out := make([]byte, 0, total)
	var tmp [4]byte
	for _, id := range ids {
		binary.BigEndian.PutUint32(tmp[:], uint32(len(id)))
		out = append(out, tmp[:]...)
		out = append(out, id...)
		binary.BigEndian.PutUint32(tmp[:], uint32(len(b.Ops[id])))
		out = append(out, tmp[:]...)
		out = append(out, b.Ops[id]...)
	}
	return append(out, b.Runtime...)
}

// Seal records the blob's state CRC; builders call it automatically.
func (b *Blob) Seal() { b.CRC = b.stateCRC() }

// VerifyCRC re-checks the sealed CRC against the blob's current state.
func (b *Blob) VerifyCRC() bool { return b.CRC == b.stateCRC() }

// stateCRC is crc32.ChecksumIEEE(b.EncodeState()), fed piece by piece
// instead of encoding the state: every receiver of a dissemination verifies
// the blob it assembled. The ID order of up to eight operators is sorted on
// the stack; operator state goes through crc32.Update's vector path, while
// names and lengths are a few bytes each and go through the table in place
// (crc32.Update would move a converted name or a length buffer to the heap).
func (b *Blob) stateCRC() uint32 {
	var few [8]string
	ids := few[:0]
	if len(b.Ops) > len(few) {
		ids = make([]string, 0, len(b.Ops))
	}
	for id := range b.Ops {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var crc uint32
	for _, id := range ids {
		data := b.Ops[id]
		crc = crcString(crcWord(crc, uint32(len(id))), id)
		crc = crc32.Update(crcWord(crc, uint32(len(data))), crc32.IEEETable, data)
	}
	return crc32.Update(crc, crc32.IEEETable, b.Runtime)
}

// crcWord extends an IEEE CRC by w as a big-endian word.
func crcWord(crc, w uint32) uint32 {
	crc = ^crc
	for shift := 24; shift >= 0; shift -= 8 {
		crc = crc32.IEEETable[byte(crc)^byte(w>>shift)] ^ crc>>8
	}
	return ^crc
}

// crcString extends an IEEE CRC by the bytes of s.
func crcString(crc uint32, s string) uint32 {
	crc = ^crc
	for i := 0; i < len(s); i++ {
		crc = crc32.IEEETable[byte(crc)^s[i]] ^ crc>>8
	}
	return ^crc
}

// ChunkCRC derives the checksum a chunked transport attaches to chunk
// `index` of a blob: receivers recompute it from the blob identity they
// assembled, so a chunk spliced from a different blob or stream position is
// rejected and retransmitted instead of completing a torn upload.
//
// It is the IEEE CRC of the two values as big-endian words, computed from
// the table in place: crc32.ChecksumIEEE's architecture dispatch would move
// the eight-byte buffer to the heap, once per chunk per receiver.
func ChunkCRC(blobCRC uint32, index int) uint32 {
	return crcWord(crcWord(0, blobCRC), uint32(index))
}

// BuildBlob snapshots the given operators into a blob. extra is opaque
// runtime state (edge counters); modelSize adds the modelled state bytes of
// operators whose in-memory snapshot under-represents their real footprint.
func BuildBlob(slot string, version uint64, ops []operator.Operator, extra []byte) (*Blob, error) {
	b := &Blob{Slot: slot, Version: version, Ops: make(map[string][]byte, len(ops)), Runtime: extra}
	size := len(extra)
	for _, op := range ops {
		data, err := op.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: snapshot %s: %w", op.ID(), err)
		}
		b.Ops[op.ID()] = data
		s := op.StateSize()
		if len(data) > s {
			s = len(data)
		}
		size += s
	}
	b.Size = size
	b.FullSize = size
	b.Seal()
	return b, nil
}

// BuildDeltaBlob snapshots the operators incrementally against the chain
// link at version base: operators implementing DeltaSnapshotter with a
// baseline for base contribute an EncodePatch patch; the rest fall back to
// full snapshots. Size counts only the bytes that actually travel — patch
// bytes plus full-entry bytes plus runtime — which is incremental
// checkpointing's entire saving; FullSize still records the modelled full
// state for restore-time flash accounting. If no operator produced a delta
// the blob degenerates to a self-contained full snapshot (Base 0).
func BuildDeltaBlob(slot string, version, base uint64, ops []operator.Operator, extra []byte) (*Blob, error) {
	b := &Blob{
		Slot: slot, Version: version, Base: base,
		Ops:      make(map[string][]byte, len(ops)),
		DeltaOps: make(map[string]bool, len(ops)),
		Runtime:  extra,
	}
	size, fullSize, deltas := len(extra), len(extra), 0
	for _, op := range ops {
		full := op.StateSize()
		var patch []byte
		ok := false
		if ds, isDS := op.(operator.DeltaSnapshotter); isDS {
			patch, ok = ds.SnapshotDelta(base)
		}
		if ok {
			b.Ops[op.ID()] = patch
			b.DeltaOps[op.ID()] = true
			size += len(patch)
			deltas++
		} else {
			data, err := op.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("checkpoint: snapshot %s: %w", op.ID(), err)
			}
			b.Ops[op.ID()] = data
			if len(data) > full {
				full = len(data)
			}
			size += full
		}
		fullSize += full
	}
	b.Size = size
	b.FullSize = fullSize
	if deltas == 0 {
		b.Base = 0
		b.DeltaOps = nil
	}
	b.Seal()
	return b, nil
}

// MaterializeChain replays a base-first chain of blobs into one full blob
// at the last link's version. It validates the chain shape (full base,
// contiguous Base pointers) and every link's CRC; any violation is a torn
// chain and returns an error.
func MaterializeChain(chain []*Blob) (*Blob, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("checkpoint: empty chain")
	}
	if chain[0].IsDelta() {
		return nil, fmt.Errorf("checkpoint: chain for %s starts at delta v%d (base v%d missing)",
			chain[0].Slot, chain[0].Version, chain[0].Base)
	}
	for i, b := range chain {
		if !b.VerifyCRC() {
			return nil, fmt.Errorf("checkpoint: %s v%d failed CRC (torn upload)", b.Slot, b.Version)
		}
		if i > 0 && b.Base != chain[i-1].Version {
			return nil, fmt.Errorf("checkpoint: %s v%d chains to v%d, not predecessor v%d",
				b.Slot, b.Version, b.Base, chain[i-1].Version)
		}
	}
	state := make(map[string][]byte, len(chain[0].Ops))
	for id, data := range chain[0].Ops {
		state[id] = data
	}
	for _, b := range chain[1:] {
		if len(b.Ops) != len(state) {
			return nil, fmt.Errorf("checkpoint: %s v%d has %d operators, chain has %d",
				b.Slot, b.Version, len(b.Ops), len(state))
		}
		for id, data := range b.Ops {
			if !b.DeltaOps[id] {
				state[id] = data
				continue
			}
			old, ok := state[id]
			if !ok {
				return nil, fmt.Errorf("checkpoint: %s v%d patches unknown operator %s", b.Slot, b.Version, id)
			}
			patched, err := operator.ApplyPatch(old, data)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %s v%d operator %s: %w", b.Slot, b.Version, id, err)
			}
			state[id] = patched
		}
	}
	last := chain[len(chain)-1]
	out := &Blob{
		Slot: last.Slot, Version: last.Version,
		Ops: state, Runtime: last.Runtime,
		Size: last.FullSize, FullSize: last.FullSize,
	}
	out.Seal()
	return out, nil
}

// RestoreBlob loads a blob into freshly instantiated operators. Operators
// present in the blob but not in ops (or vice versa) indicate a wiring bug
// and return an error.
func RestoreBlob(b *Blob, ops []operator.Operator) error {
	if b.IsDelta() {
		return fmt.Errorf("checkpoint: cannot restore delta blob %s v%d directly; materialise its chain first", b.Slot, b.Version)
	}
	if len(ops) != len(b.Ops) {
		return fmt.Errorf("checkpoint: blob has %d operators, node has %d", len(b.Ops), len(ops))
	}
	for _, op := range ops {
		data, ok := b.Ops[op.ID()]
		if !ok {
			return fmt.Errorf("checkpoint: blob missing operator %s", op.ID())
		}
		if err := op.Restore(data); err != nil {
			return fmt.Errorf("checkpoint: restore %s: %w", op.ID(), err)
		}
	}
	return nil
}

// Alignment tracks token arrival for one node across checkpoint versions.
// It is safe for concurrent use: the node's executor owns the token flow,
// but recovery paths running off other goroutines Abort mid-alignment, and
// telemetry reads Aligning/Stalled concurrently.
type Alignment struct {
	mu        sync.Mutex
	upstreams []string
	version   uint64 // version currently aligning; 0 = idle
	seen      map[string]bool
}

// NewAlignment creates an alignment tracker over the node's upstream
// neighbours (slot-level, per graph.SlotUpstreams). Source nodes pass the
// single virtual upstream "controller".
func NewAlignment(upstreams []string) *Alignment {
	a := &Alignment{upstreams: append([]string(nil), upstreams...), seen: make(map[string]bool)}
	sort.Strings(a.upstreams)
	return a
}

// status describes the effect of a token arrival.
type status struct {
	// Complete is true when tokens have arrived from every upstream:
	// the node must checkpoint now and then forward its token.
	Complete bool
	// Stalled lists upstreams whose channels must not be consumed until
	// the alignment completes.
	Stalled []string
}

// OnToken records a token from an upstream neighbour. It returns an error
// for protocol violations: unknown upstream, duplicate token, or a version
// mismatch with an alignment in progress (checkpoint periods are far longer
// than alignment, so overlapping versions indicate a bug or a lost abort).
func (a *Alignment) OnToken(from string, version uint64) (status, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.knows(from) {
		return status{}, fmt.Errorf("checkpoint: token from unknown upstream %q", from)
	}
	if a.version == 0 {
		a.version = version
	} else if a.version != version {
		return status{}, fmt.Errorf("checkpoint: token v%d while aligning v%d", version, a.version)
	}
	if a.seen[from] {
		return status{}, fmt.Errorf("checkpoint: duplicate token from %q for v%d", from, version)
	}
	a.seen[from] = true
	if len(a.seen) == len(a.upstreams) {
		a.reset()
		return status{Complete: true}, nil
	}
	return status{Stalled: a.stalled()}, nil
}

func (a *Alignment) reset() {
	a.version = 0
	a.seen = make(map[string]bool)
}

func (a *Alignment) stalled() []string {
	var s []string
	for _, u := range a.upstreams {
		if a.seen[u] {
			s = append(s, u)
		}
	}
	return s
}

func (a *Alignment) knows(id string) bool {
	for _, u := range a.upstreams {
		if u == id {
			return true
		}
	}
	return false
}
