package storage

import (
	"bytes"
	"testing"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/operator"
)

// putChain stores a three-link chain for slot: full v1, delta v2, delta v3
// over a single synthetic operator entry, and returns the per-version
// state bytes.
func putChain(t *testing.T, s *Store, slot string) map[uint64][]byte {
	t.Helper()
	states := map[uint64][]byte{
		1: bytes.Repeat([]byte{1}, 256),
		2: append(bytes.Repeat([]byte{1}, 255), 9),
		3: append(bytes.Repeat([]byte{1}, 254), 8, 9),
	}
	full := &checkpoint.Blob{Slot: slot, Version: 1,
		Ops: map[string][]byte{"op": states[1]}, Size: 256, FullSize: 256}
	full.Seal()
	s.PutBlob(full)
	prev := states[1]
	for v := uint64(2); v <= 3; v++ {
		patch := operator.EncodePatch(prev, states[v])
		b := &checkpoint.Blob{Slot: slot, Version: v, Base: v - 1,
			Ops:      map[string][]byte{"op": patch},
			DeltaOps: map[string]bool{"op": true},
			Size:     len(patch), FullSize: 256}
		b.Seal()
		s.PutBlob(b)
		prev = states[v]
	}
	return states
}

func TestMaterializeBlobReplaysChain(t *testing.T) {
	s := New()
	states := putChain(t, s, "n1")
	for v := uint64(1); v <= 3; v++ {
		blob, err := s.MaterializeBlob(v, "n1")
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if !bytes.Equal(blob.Ops["op"], states[v]) {
			t.Fatalf("v%d materialised wrong state", v)
		}
		if blob.IsDelta() {
			t.Fatalf("v%d materialised blob still a delta", v)
		}
	}
	if _, err := s.MaterializeBlob(3, "nope"); err == nil {
		t.Fatal("a slot with no chain materialised")
	}
}

func TestMaterializeBlobTornChain(t *testing.T) {
	s := New()
	putChain(t, s, "n1")
	// Tear the chain: drop the base, keep the deltas.
	s.mu.Lock()
	delete(s.states[1], "n1")
	s.mu.Unlock()
	if _, err := s.MaterializeBlob(3, "n1"); err == nil {
		t.Fatal("torn chain materialised")
	}
}

func TestCommitRetainsChainBases(t *testing.T) {
	s := New()
	states := putChain(t, s, "n1")
	// A second slot that rebased at v3: its older blobs are collectable.
	old := &checkpoint.Blob{Slot: "n2", Version: 1, Ops: map[string][]byte{"op": {1}}, Size: 1, FullSize: 1}
	old.Seal()
	s.PutBlob(old)
	fresh := &checkpoint.Blob{Slot: "n2", Version: 3, Ops: map[string][]byte{"op": {3}}, Size: 1, FullSize: 1}
	fresh.Seal()
	s.PutBlob(fresh)

	s.Commit(3)
	// n1's chain links v1 and v2 must survive GC: v3 is a delta over them.
	blob, err := s.MaterializeBlob(3, "n1")
	if err != nil {
		t.Fatalf("committed chain torn by GC: %v", err)
	}
	if !bytes.Equal(blob.Ops["op"], states[3]) {
		t.Fatal("materialised state wrong after GC")
	}
	// n2's v1 blob is unreferenced and must be gone.
	if _, ok := s.Blob(1, "n2"); ok {
		t.Fatal("unreferenced old blob survived commit GC")
	}
}
