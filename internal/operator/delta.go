package operator

import (
	"encoding/binary"
	"fmt"
)

// DeltaSnapshotter is the optional incremental-checkpoint capability of an
// operator: instead of serialising its whole state at every checkpoint, the
// operator emits a patch describing only what changed since the previous
// snapshot. The checkpoint layer chains such patches onto a full base blob
// and replays the chain at restore time. Operators that cannot produce a
// delta for the requested basis return ok=false and the caller falls back
// to a full snapshot.
type DeltaSnapshotter interface {
	Operator
	// SnapshotDelta returns a patch (EncodePatch format) transforming the
	// serialised state recorded at sinceVersion into the current state.
	// ok=false when no baseline for sinceVersion exists (first checkpoint,
	// freshly restored operator, or an intervening full snapshot at a
	// different version).
	SnapshotDelta(sinceVersion uint64) (patch []byte, ok bool)
	// MarkSnapshot records the operator's current serialised state as the
	// baseline for version v — the basis the next SnapshotDelta diffs
	// against. The node calls it after every successful checkpoint, full
	// or delta.
	MarkSnapshot(v uint64)
}

// Patch wire format: u32 newLen, u32 nRanges, then nRanges of
// (u32 offset, u32 length, length bytes). Applying a patch to the old
// bytes yields the new bytes: copy old, truncate/extend to newLen, then
// overwrite each range.
const patchHeaderBytes = 8

// mergeGap coalesces difference runs separated by fewer equal bytes than a
// range header costs, trading a few unchanged bytes for fewer ranges.
const mergeGap = 8

// EncodePatch computes a byte-range diff turning old into new. The patch is
// at worst one range covering all of new (a full rewrite), so a patch is
// never much larger than the state itself.
func EncodePatch(old, new []byte) []byte {
	type span struct{ off, end int }
	var spans []span
	limit := len(old)
	if len(new) < limit {
		limit = len(new)
	}
	i := 0
	for i < limit {
		if old[i] == new[i] {
			i++
			continue
		}
		j := i + 1
		for j < limit {
			if old[j] != new[j] {
				j++
				continue
			}
			// Probe the equal run: absorb it if shorter than a header.
			k := j
			for k < limit && k-j < mergeGap && old[k] == new[k] {
				k++
			}
			if k < limit && k-j < mergeGap {
				j = k + 1
				continue
			}
			break
		}
		spans = append(spans, span{i, j})
		i = j
	}
	if len(new) > limit {
		// Appended tail is one more range.
		if n := len(spans); n > 0 && spans[n-1].end == limit {
			spans[n-1].end = len(new)
		} else {
			spans = append(spans, span{limit, len(new)})
		}
	}
	size := patchHeaderBytes
	for _, s := range spans {
		size += 8 + (s.end - s.off)
	}
	buf := make([]byte, 0, size)
	var tmp [4]byte
	put := func(v uint32) {
		binary.BigEndian.PutUint32(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(uint32(len(new)))
	put(uint32(len(spans)))
	for _, s := range spans {
		put(uint32(s.off))
		put(uint32(s.end - s.off))
		buf = append(buf, new[s.off:s.end]...)
	}
	return buf
}

// ApplyPatch applies a patch produced by EncodePatch to old and returns the
// new bytes. It never aliases old.
func ApplyPatch(old, patch []byte) ([]byte, error) {
	if len(patch) < patchHeaderBytes {
		return nil, fmt.Errorf("operator: short patch (%d bytes)", len(patch))
	}
	newLen := int(binary.BigEndian.Uint32(patch[0:4]))
	nRanges := int(binary.BigEndian.Uint32(patch[4:8]))
	// Every new byte is either old or carried by a range, so a longer newLen
	// is malformed; checking first keeps a peer's patch from sizing out.
	if newLen > len(old)+len(patch) {
		return nil, fmt.Errorf("operator: patch length %d exceeds its inputs", newLen)
	}
	out := make([]byte, newLen)
	copy(out, old)
	off := patchHeaderBytes
	for r := 0; r < nRanges; r++ {
		if off+8 > len(patch) {
			return nil, fmt.Errorf("operator: truncated patch range header")
		}
		at := int(binary.BigEndian.Uint32(patch[off : off+4]))
		ln := int(binary.BigEndian.Uint32(patch[off+4 : off+8]))
		off += 8
		if off+ln > len(patch) || at+ln > newLen {
			return nil, fmt.Errorf("operator: patch range [%d,%d) out of bounds", at, at+ln)
		}
		copy(out[at:at+ln], patch[off:off+ln])
		off += ln
	}
	return out, nil
}

// DeltaTracker is the embeddable baseline store behind DeltaSnapshotter: it
// remembers the serialised state at the last snapshot cut and diffs the
// current state against it. Operators wire it in two one-line methods:
//
//	func (o *Op) SnapshotDelta(since uint64) ([]byte, bool) { return o.delta.Delta(since, o.Snapshot) }
//	func (o *Op) MarkSnapshot(v uint64)                     { o.delta.Mark(v, o.Snapshot) }
type DeltaTracker struct {
	baseVersion uint64
	base        []byte
	haveBase    bool
	// pending caches the serialised bytes Delta just diffed, so the Mark
	// that follows within the same checkpoint cut (no tuples processed in
	// between — both run on the executor's checkpoint path) reuses them
	// instead of serialising the state a second time.
	pending []byte
}

// Delta diffs snap()'s current bytes against the baseline recorded for
// sinceVersion; ok=false when the baseline is missing or stale.
func (d *DeltaTracker) Delta(sinceVersion uint64, snap func() ([]byte, error)) ([]byte, bool) {
	d.pending = nil
	if !d.haveBase || d.baseVersion != sinceVersion {
		return nil, false
	}
	cur, err := snap()
	if err != nil {
		return nil, false
	}
	d.pending = cur
	return EncodePatch(d.base, cur), true
}

// Mark records the operator's current serialised bytes as the baseline for
// version v: the bytes cached by a Delta call in the same checkpoint cut
// when present, a fresh snap() otherwise.
func (d *DeltaTracker) Mark(v uint64, snap func() ([]byte, error)) {
	if cur := d.pending; cur != nil {
		d.pending = nil
		d.baseVersion, d.base, d.haveBase = v, cur, true
		return
	}
	cur, err := snap()
	if err != nil {
		d.haveBase = false
		return
	}
	d.baseVersion, d.base, d.haveBase = v, cur, true
}

// drop invalidates the baseline (after a Restore the in-memory state no
// longer matches any recorded cut).
func (d *DeltaTracker) drop() {
	d.haveBase = false
	d.pending = nil
}
