// Package seqset holds the two sequence-number sets the region data path
// deduplicates with. Both replace a hash map keyed by sequence with bit
// arrays indexed by it, so recording a sequence is a shift, a mask and an
// OR, and neither grows with the number of sequences a dense stream has
// carried.
//
// Window is approximate by design (a bounded memory of recent sequences,
// one per upstream edge); Set is exact (the sink's exactly-once filter).
// Neither is safe for concurrent use: the caller's lock covers them.
package seqset

// WindowSize is how many sequences below its high-water mark a Window
// remembers.
const WindowSize = 1024

// Window suppresses repeats among the WindowSize sequences ending at the
// highest one admitted so far: one bit per sequence in a ring indexed by
// seq % WindowSize. A sequence that has fallen below the window is admitted
// without being recorded — the owner's downstream exact filter catches such
// a very late duplicate. The zero value is an empty window.
type Window struct {
	bits [WindowSize / 64]uint64
	hi   uint64
}

// Admit reports whether seq is new to the window, recording it if so.
func (w *Window) Admit(seq uint64) bool {
	slot := seq % WindowSize
	word, bit := &w.bits[slot>>6], uint64(1)<<(slot&63)
	if seq > w.hi {
		// The window slides up to seq. The slots it passes over held
		// sequences that just fell out of it; seq's own slot is set below,
		// so the step-by-one of a dense stream clears nothing.
		if d := seq - w.hi; d >= WindowSize {
			w.bits = [WindowSize / 64]uint64{}
		} else if d > 1 {
			w.clear((w.hi+1)%WindowSize, d-1)
		}
		w.hi = seq
	} else if w.hi-seq >= WindowSize {
		return true
	} else if *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}

// clear zeroes n ring slots starting at slot from.
func (w *Window) clear(from, n uint64) {
	for n > 0 {
		off := from & 63
		span := min(64-off, n)
		w.bits[from>>6] &^= (^uint64(0) >> (64 - span)) << off
		from = (from + span) % WindowSize
		n -= span
	}
}

// Reset empties the window.
func (w *Window) Reset() { *w = Window{} }

// pageShift sizes a Set page: 4096 sequences in 512 bytes.
const (
	pageShift = 12
	pageSeqs  = 1 << pageShift
)

type page struct {
	bits [pageSeqs / 64]uint64
	n    int // bits set
}

// Set is an exact set of sequence numbers: every uint64 is representable
// and membership is never forgotten. Sequences live in fixed-size bit pages
// keyed by their high bits. The page last touched is cached, so a dense
// stream consults the page index once per page, not per sequence; and a
// page that fills while every page below it is full too is released and
// stands behind the floor (below the floor ⇒ member). A dense stream thus
// keeps O(1) pages resident however long it runs; a sparse one costs at
// most one bit per sequence of the range it spans.
//
// Sequences are counted from 1 throughout the runtime (counters are
// incremented before use), so pages are indexed by seq-1: sequences 1..4096
// fill the first page exactly. Sequence 0 wraps to the top page.
//
// The zero value is an empty set.
type Set struct {
	floor  uint64 // pages with a key below it are full and released
	pages  map[uint64]*page
	cur    *page // pages[curKey], nil when not cached
	curKey uint64
	count  uint64
}

// Add records seq and reports whether it was absent.
func (s *Set) Add(seq uint64) bool {
	idx := seq - 1
	key := idx >> pageShift
	if key < s.floor {
		return false
	}
	p := s.cur
	if p == nil || key != s.curKey {
		if p = s.pages[key]; p == nil {
			if s.pages == nil {
				s.pages = make(map[uint64]*page)
			}
			p = new(page)
			s.pages[key] = p
		}
		s.cur, s.curKey = p, key
	}
	word, bit := &p.bits[(idx&(pageSeqs-1))>>6], uint64(1)<<(idx&63)
	if *word&bit != 0 {
		return false
	}
	*word |= bit
	p.n++
	s.count++
	if p.n == pageSeqs && key == s.floor {
		s.cur = nil
		for p != nil && p.n == pageSeqs {
			delete(s.pages, s.floor)
			s.floor++
			p = s.pages[s.floor]
		}
	}
	return true
}

// Len is the number of distinct sequences added.
func (s *Set) Len() uint64 { return s.count }

// Pages is the number of bit pages resident.
func (s *Set) Pages() int { return len(s.pages) }
