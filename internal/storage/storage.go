// Package storage is a phone's local flash store for checkpoint blobs,
// source-preservation logs (MobiStreams, §III-B step 3) and edge
// input-preservation logs (the local/dist-n baselines, §IV-B). Byte
// accounting feeds Fig. 10a.
package storage

import (
	"fmt"
	"sort"
	"sync"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/tuple"
)

// Store is one phone's local storage. It is safe for concurrent use. A
// phone failure makes its store unavailable — the region never reads a dead
// phone's store.
type Store struct {
	mu sync.Mutex
	// states: version -> slot -> blob. Under MobiStreams every phone
	// eventually holds every slot's blob; under dist-n only n peers and
	// the owner do; under local only the owner.
	states map[uint64]map[string]*checkpoint.Blob
	// srcLogs: version -> source operator -> tuples admitted since that
	// version's cut. Replayed during catch-up.
	srcLogs map[uint64]map[string][]*tuple.Tuple
	// edgeLogs: downstream slot -> retained output tuples with their
	// edge sequence numbers (input preservation for local/dist-n).
	edgeLogs map[string][]edgeEntry
	// committed is the most recent fully committed checkpoint version.
	committed uint64

	cumSourceBytes int64
	cumEdgeBytes   int64
	lost           bool
}

// edgeEntry is one retained output tuple on an edge, with the operator
// endpoints needed to re-address it during a resend.
type edgeEntry struct {
	EdgeSeq uint64
	FromOp  string
	ToOp    string
	T       *tuple.Tuple
}

// New creates an empty store.
func New() *Store {
	return &Store{
		states:   make(map[uint64]map[string]*checkpoint.Blob),
		srcLogs:  make(map[uint64]map[string][]*tuple.Tuple),
		edgeLogs: make(map[string][]edgeEntry),
	}
}

// MarkLost marks the store's contents destroyed (phone failed). Reads
// return nothing afterwards.
func (s *Store) MarkLost() {
	s.mu.Lock()
	s.lost = true
	s.states = make(map[uint64]map[string]*checkpoint.Blob)
	s.srcLogs = make(map[uint64]map[string][]*tuple.Tuple)
	s.edgeLogs = make(map[string][]edgeEntry)
	s.mu.Unlock()
}

// PutBlob saves a checkpoint blob (own or a peer's).
func (s *Store) PutBlob(b *checkpoint.Blob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lost {
		return
	}
	m, ok := s.states[b.Version]
	if !ok {
		m = make(map[string]*checkpoint.Blob)
		s.states[b.Version] = m
	}
	m[b.Slot] = b
}

// Blob fetches a slot's blob for a version.
func (s *Store) Blob(version uint64, slot string) (*checkpoint.Blob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.states[version][slot]
	return b, ok
}

// chainLinksLocked walks the Base pointers from (version, slot) down to the
// full base blob and returns the chain base-first. Caller holds s.mu.
func (s *Store) chainLinksLocked(version uint64, slot string) ([]*checkpoint.Blob, error) {
	var links []*checkpoint.Blob
	v := version
	for {
		b, ok := s.states[v][slot]
		if !ok {
			return nil, fmt.Errorf("storage: missing chain link %s v%d (torn chain from v%d)", slot, v, version)
		}
		links = append(links, b)
		if !b.IsDelta() {
			break
		}
		if b.Base >= v {
			return nil, fmt.Errorf("storage: %s v%d chains forward to v%d", slot, v, b.Base)
		}
		v = b.Base
	}
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return links, nil
}

// MaterializeBlob rebuilds the full state blob for (version, slot) by
// replaying its delta chain; every link's CRC is verified, so a torn or
// corrupted upload surfaces as an error rather than bad operator state.
func (s *Store) MaterializeBlob(version uint64, slot string) (*checkpoint.Blob, error) {
	s.mu.Lock()
	links, err := s.chainLinksLocked(version, slot)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return checkpoint.MaterializeChain(links)
}

// AppendSource preserves one admitted input tuple for a version's log.
func (s *Store) AppendSource(version uint64, source string, t *tuple.Tuple) {
	s.AppendSourceRun(version, source, []*tuple.Tuple{t})
}

// AppendSourceRun preserves a run of admitted input tuples, in admission
// order, under one lock hold (the source's group commit). ts is only read.
func (s *Store) AppendSourceRun(version uint64, source string, ts []*tuple.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appendLogLocked(version, source, ts) {
		for _, t := range ts {
			s.cumSourceBytes += int64(t.Size)
		}
	}
}

// appendLogLocked copies ts onto the end of a version's source log and
// reports whether the store still holds anything. Caller holds s.mu.
func (s *Store) appendLogLocked(version uint64, source string, ts []*tuple.Tuple) bool {
	if s.lost {
		return false
	}
	m, ok := s.srcLogs[version]
	if !ok {
		m = make(map[string][]*tuple.Tuple)
		s.srcLogs[version] = m
	}
	m[source] = append(m[source], ts...)
	return true
}

// SourceLog returns the preserved input for a version and source. The
// returned slice is a snapshot; later appends do not affect it.
func (s *Store) SourceLog(version uint64, source string) []*tuple.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.srcLogs[version][source]
	return append([]*tuple.Tuple(nil), log...)
}

// SourceLogLen reports the current length of a version's source log.
func (s *Store) SourceLogLen(version uint64, source string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.srcLogs[version][source])
}

// SourceLogsFrom returns the concatenation, in version order, of all
// preserved input for the source with version >= from. Recovery to version
// v replays exactly this: bucket v holds input since v's cut, and buckets
// of later (uncommitted, aborted) checkpoints hold the input after their
// cuts.
func (s *Store) SourceLogsFrom(from uint64, source string) []*tuple.Tuple {
	s.mu.Lock()
	defer s.mu.Unlock()
	var versions []uint64
	for v := range s.srcLogs {
		if v >= from {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	var out []*tuple.Tuple
	for _, v := range versions {
		out = append(out, s.srcLogs[v][source]...)
	}
	return out
}

// AppendEdge retains one output tuple on an edge (input preservation).
func (s *Store) AppendEdge(downstreamSlot string, edgeSeq uint64, fromOp, toOp string, t *tuple.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lost {
		return
	}
	s.edgeLogs[downstreamSlot] = append(s.edgeLogs[downstreamSlot],
		edgeEntry{EdgeSeq: edgeSeq, FromOp: fromOp, ToOp: toOp, T: t})
	s.cumEdgeBytes += int64(t.Size)
}

// AppendSourceReplica stores the tuples of a peer's preservation broadcast
// without counting them toward this phone's cumulative preservation metric:
// the region-level Fig. 10a metric counts each preserved tuple once, at its
// source. ts is shared with the sender and every other receiver, so it is
// only read.
func (s *Store) AppendSourceReplica(version uint64, source string, ts []*tuple.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendLogLocked(version, source, ts)
}

// EdgeLogSince returns retained entries on an edge with EdgeSeq > after.
func (s *Store) EdgeLogSince(downstreamSlot string, after uint64) []edgeEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []edgeEntry
	for _, e := range s.edgeLogs[downstreamSlot] {
		if e.EdgeSeq > after {
			out = append(out, e)
		}
	}
	return out
}

// TruncateEdge drops retained entries with EdgeSeq <= upto — called when
// the downstream slot's checkpoint covering them commits.
func (s *Store) TruncateEdge(downstreamSlot string, upto uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.edgeLogs[downstreamSlot]
	i := 0
	for i < len(log) && log[i].EdgeSeq <= upto {
		i++
	}
	s.edgeLogs[downstreamSlot] = append([]edgeEntry(nil), log[i:]...)
}

// Commit marks a version fully committed and garbage-collects older
// versions' blobs and source logs. The committed version's own artifacts
// are retained — they are what recovery restores — and so is every older
// blob its delta chains still reference: collecting a base link out from
// under a committed delta would tear the chain recovery replays.
func (s *Store) Commit(version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if version <= s.committed {
		return
	}
	s.committed = version
	type slotVer struct {
		v    uint64
		slot string
	}
	keep := make(map[slotVer]bool)
	for slot, b := range s.states[version] {
		for b.IsDelta() && b.Base < b.Version {
			base, ok := s.states[b.Base][slot]
			if !ok {
				break
			}
			keep[slotVer{b.Base, slot}] = true
			b = base
		}
	}
	for v, m := range s.states {
		if v >= version {
			continue
		}
		for slot := range m {
			if !keep[slotVer{v, slot}] {
				delete(m, slot)
			}
		}
		if len(m) == 0 {
			delete(s.states, v)
		}
	}
	for v := range s.srcLogs {
		if v < version {
			delete(s.srcLogs, v)
		}
	}
}

// CumulativePreservedBytes reports total bytes ever appended to the
// source-preservation and edge-preservation logs (Fig. 10a's metric).
func (s *Store) CumulativePreservedBytes() (source, edge int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cumSourceBytes, s.cumEdgeBytes
}

// RetainedBytes reports bytes currently held by preservation logs and
// checkpoint blobs.
func (s *Store) RetainedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, m := range s.srcLogs {
		for _, log := range m {
			for _, t := range log {
				n += int64(t.Size)
			}
		}
	}
	for _, log := range s.edgeLogs {
		for _, e := range log {
			n += int64(e.T.Size)
		}
	}
	for _, m := range s.states {
		for _, b := range m {
			n += int64(b.Size)
		}
	}
	return n
}
