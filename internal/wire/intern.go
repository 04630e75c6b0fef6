package wire

import (
	"hash/maphash"
	"sync/atomic"
)

// Decoded names (slot, operator, source and kind names) repeat on every
// frame of an edge, so decode looks each one up in a process-wide table
// before copying it out of the frame. The table is split into buckets of
// internWays slots; a name may sit in any slot of its bucket, and its home
// slot is probed first. A hit compares the bytes and returns the stored
// string without allocating or storing. A miss allocates the string (and
// the pointer a slot holds) and writes it over the bucket's slots in turn,
// so any internWays names that share a bucket settle in it after at most
// internWays misses, whatever the table held before; a larger working set
// in one bucket keeps missing. Memory is bounded by internSlots ×
// internMaxLen whatever the traffic: hostile or high-churn names only cost
// misses. The hash is seeded per process, so a peer cannot choose names
// that thrash one bucket. Interned strings are copies, never views: frames
// belong to their callers, who may reuse them.
const (
	internSlots  = 512 // a power of two
	internWays   = 4   // slots per bucket, a power of two
	internMaxLen = 64  // longer names bypass the table
)

var (
	internSeed  = maphash.MakeSeed()
	internTable [internSlots]atomic.Pointer[string]
	// internTurn counts each bucket's misses; its low bits pick the slot
	// the next miss writes.
	internTurn [internSlots / internWays]atomic.Uint32
)

// internHome returns the index of b's home slot; its bucket is the
// internWays slots from home&^(internWays-1).
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
	home := internHome(b)
	for i := 0; i < internWays; i++ {
		if p := internTable[home^i].Load(); p != nil && *p == string(b) {
			return *p
		}
	}
	s := string(b)
	bucket := home / internWays
	internTable[bucket*internWays+int(internTurn[bucket].Add(1)%internWays)].Store(&s)
	return s
}

// interned reads a length-prefixed name through the intern table. Only
// names go through it: string payload values vary without bound and are
// read with str.
func (r *reader) interned() string { return intern(r.bytes()) }
