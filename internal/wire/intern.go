package wire

import (
	"hash/maphash"
	"sync/atomic"
)

// Decoded names (slot, operator, source and kind names) repeat on every
// frame of an edge, so decode looks each one up in a process-wide table
// before copying it out of the frame. A hit compares the bytes and returns
// the stored string without allocating. A miss allocates the string (and
// the pointer a slot holds) and stores it in the name's home slot, or in
// the slot sharing its bucket when the home slot is taken and that one is
// empty, so two hot names that hash together do not evict each other.
// Memory is bounded by internSlots × internMaxLen whatever the traffic:
// hostile or high-churn names only cost misses. The hash is seeded per
// process, so a peer cannot choose names that thrash one bucket. Interned
// strings are copies, never views: frames belong to their callers, who
// may reuse them.
const (
	internSlots  = 512 // a power of two
	internMaxLen = 64  // longer names bypass the table
)

var (
	internSeed  = maphash.MakeSeed()
	internTable [internSlots]atomic.Pointer[string]
)

// internHome returns the index of b's home slot; its neighbour is home^1.
func internHome(b []byte) int {
	return int(maphash.Bytes(internSeed, b) & (internSlots - 1))
}

// intern returns a string equal to b that does not alias it.
func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	i := internHome(b)
	home, next := &internTable[i], &internTable[i^1]
	p := home.Load()
	if p != nil && *p == string(b) {
		return *p
	}
	q := next.Load()
	if q != nil && *q == string(b) {
		return *q
	}
	s := string(b)
	if p != nil && q == nil {
		next.Store(&s)
	} else {
		home.Store(&s)
	}
	return s
}

// interned reads a length-prefixed name through the intern table. Only
// names go through it: string payload values vary without bound and are
// read with str.
func (r *reader) interned() string { return intern(r.bytes()) }
