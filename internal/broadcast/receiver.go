package broadcast

import (
	"sync"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
)

// Receiver assembles checkpoint blocks arriving at one phone, answers
// bitmap queries, and stores completed blobs into the phone's local store.
type Receiver struct {
	store *storage.Store

	mu  sync.Mutex
	asm map[asmKey]*assembler
}

type asmKey struct {
	slot    string
	version uint64
}

type assembler struct {
	blob  *checkpoint.Blob
	got   []bool
	count int
	done  bool
}

// NewReceiver creates a receiver backed by the given store.
func NewReceiver(store *storage.Store) *Receiver {
	return &Receiver{store: store, asm: make(map[asmKey]*assembler)}
}

func (r *Receiver) assemblerFor(slot string, version uint64, total int, blob *checkpoint.Blob) *assembler {
	k := asmKey{slot, version}
	a, ok := r.asm[k]
	if !ok {
		a = &assembler{blob: blob, got: make([]bool, total)}
		r.asm[k] = a
	}
	if a.blob == nil {
		a.blob = blob
	}
	return a
}

// OnBlock records one UDP block; it returns true when the blob just became
// complete (at which point it has been persisted to the store). A block
// whose chunk CRC does not verify is not recorded: the next bitmap query
// reports it missing and the sender retransmits it.
func (r *Receiver) OnBlock(msg BlockMsg) bool {
	gram := [1]simnet.Datagram{{Payload: &msg}}
	return r.OnBlocks(gram[:]) > 0
}

// OnBlocks records the *BlockMsg payloads of grams (a burst unpacked by
// simnet.Datagrams) as OnBlock would, under one lock, looking an assembler
// up only when the blob differs from the previous block's. It returns how
// many blobs became complete.
func (r *Receiver) OnBlocks(grams []simnet.Datagram) (completed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var a *assembler
	var prev *BlockMsg
	for _, g := range grams {
		msg, ok := g.Payload.(*BlockMsg)
		if !ok {
			continue
		}
		if prev == nil || msg.Slot != prev.Slot || msg.Version != prev.Version {
			a = r.assemblerFor(msg.Slot, msg.Version, msg.Total, msg.Blob)
		} else if a.blob == nil {
			a.blob = msg.Blob
		}
		prev = msg
		if msg.Index < 0 || msg.Index >= len(a.got) || a.got[msg.Index] || !chunkOK(a.blob, msg.Index, msg.CRC) {
			continue
		}
		a.got[msg.Index] = true
		a.count++
		if r.maybeComplete(a) {
			completed++
		}
	}
	return completed
}

// OnFill records a TCP fill of multiple blocks; it returns true when the
// blob just became complete. Chunks failing CRC verification are skipped.
func (r *Receiver) OnFill(msg FillMsg) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.assemblerFor(msg.Slot, msg.Version, msg.Total, msg.Blob)
	for k, i := range msg.Indices {
		if i < 0 || i >= len(a.got) || a.got[i] {
			continue
		}
		if k >= len(msg.CRCs) || !chunkOK(a.blob, i, msg.CRCs[k]) {
			continue
		}
		a.got[i] = true
		a.count++
	}
	return r.maybeComplete(a)
}

// chunkOK verifies a chunk checksum against the blob identity this
// assembly committed to on its first chunk — not the chunk's own claimed
// blob, which would make the check a tautology. A chunk spliced from a
// different blob under the same (slot, version) key therefore fails and
// is left for retransmission, and so is a chunk that carries no checksum.
func chunkOK(blob *checkpoint.Blob, index int, crc uint32) bool {
	return blob != nil && crc == checkpoint.ChunkCRC(blob.CRC, index)
}

func (r *Receiver) maybeComplete(a *assembler) bool {
	if a.done || a.count != len(a.got) || a.blob == nil {
		return false
	}
	// A sealed blob that no longer matches its CRC is a torn upload:
	// discard the assembly rather than hand corrupted state to recovery.
	// (The next dissemination or a TCP fill rebuilds it from scratch.)
	if a.blob.CRC != 0 && !a.blob.VerifyCRC() {
		a.got = make([]bool, len(a.got))
		a.count = 0
		a.blob = nil
		return false
	}
	a.done = true
	r.store.PutBlob(a.blob)
	return true
}

// Bitmap answers a query: one bool per block, copied into the sender's
// buffer when the query carries one. The wire size of the answer is
// BitmapWireBytes(total).
func (r *Receiver) Bitmap(q QueryMsg) []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.assemblerFor(q.Slot, q.Version, q.Total, nil)
	return append(q.into[:0], a.got...)
}

// Answer is Bitmap as a reply payload: filled when the bitmap fits the
// query's buffer, which it is copied into, else the bitmap itself.
func (r *Receiver) Answer(q QueryMsg) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.assemblerFor(q.Slot, q.Version, q.Total, nil)
	if len(q.into) != len(a.got) {
		return append([]bool(nil), a.got...)
	}
	copy(q.into, a.got)
	return filled{}
}

// DropBefore discards partial assemblies older than version — a failure
// during a checkpoint abandons the partial data (§III-D).
func (r *Receiver) DropBefore(version uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := range r.asm {
		if k.version < version {
			delete(r.asm, k)
		}
	}
}
