package storage

import (
	"testing"
	"testing/quick"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/tuple"
)

func blob(slot string, ver uint64, size int) *checkpoint.Blob {
	return &checkpoint.Blob{Slot: slot, Version: ver, Size: size, Ops: map[string][]byte{}}
}

func tp(seq uint64, size int) *tuple.Tuple { return &tuple.Tuple{Seq: seq, Size: size} }

func TestBlobStoreAndLookup(t *testing.T) {
	s := New()
	s.PutBlob(blob("n1", 1, 100))
	s.PutBlob(blob("n2", 1, 200))
	if _, ok := s.Blob(1, "n1"); !ok {
		t.Fatal("blob n1 missing")
	}
	if _, ok := s.Blob(2, "n1"); ok {
		t.Fatal("phantom version")
	}
	for _, slot := range []string{"n1", "n2"} {
		if b, err := s.MaterializeBlob(1, slot); err != nil || b.Slot != slot {
			t.Fatalf("%s v1 does not materialise: %v", slot, err)
		}
	}
	if _, err := s.MaterializeBlob(1, "n3"); err == nil {
		t.Fatal("a slot never stored materialised")
	}
}

func TestCommitGarbageCollects(t *testing.T) {
	s := New()
	s.PutBlob(blob("n1", 1, 10))
	s.PutBlob(blob("n1", 2, 10))
	s.AppendSource(1, "s", tp(1, 5))
	s.AppendSource(2, "s", tp(2, 5))
	s.Commit(2)
	if _, ok := s.Blob(1, "n1"); ok {
		t.Fatal("old blob not collected")
	}
	if _, ok := s.Blob(2, "n1"); !ok {
		t.Fatal("committed blob collected")
	}
	if len(s.SourceLog(1, "s")) != 0 {
		t.Fatal("old source log not collected")
	}
	if len(s.SourceLog(2, "s")) != 1 {
		t.Fatal("committed source log collected")
	}
	if s.Committed() != 2 {
		t.Fatalf("committed = %d", s.Committed())
	}
	// Commits never go backward.
	s.Commit(1)
	if s.Committed() != 2 {
		t.Fatal("commit went backward")
	}
}

func TestSourceLogSnapshotIsolated(t *testing.T) {
	s := New()
	s.AppendSource(1, "s", tp(1, 10))
	log := s.SourceLog(1, "s")
	s.AppendSource(1, "s", tp(2, 10))
	if len(log) != 1 {
		t.Fatal("returned log aliases store")
	}
	if s.SourceLogLen(1, "s") != 2 {
		t.Fatalf("log len = %d", s.SourceLogLen(1, "s"))
	}
}

func TestEdgeLogRetainTruncate(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 5; i++ {
		s.AppendEdge("n2", i, "a", "b", tp(i, 100))
	}
	if got := s.EdgeLogSince("n2", 2); len(got) != 3 || got[0].EdgeSeq != 3 {
		t.Fatalf("since(2) = %v", got)
	}
	s.TruncateEdge("n2", 3)
	if got := s.EdgeLogSince("n2", 0); len(got) != 2 || got[0].EdgeSeq != 4 {
		t.Fatalf("after truncate = %v", got)
	}
}

func TestCumulativeAndRetainedBytes(t *testing.T) {
	s := New()
	s.AppendSource(1, "s", tp(1, 100))
	s.AppendEdge("n2", 1, "a", "b", tp(1, 50))
	s.PutBlob(blob("n1", 1, 30))
	src, edge := s.CumulativePreservedBytes()
	if src != 100 || edge != 50 {
		t.Fatalf("cumulative = %d/%d", src, edge)
	}
	if got := s.RetainedBytes(); got != 180 {
		t.Fatalf("retained = %d, want 180", got)
	}
	s.TruncateEdge("n2", 1)
	if got := s.RetainedBytes(); got != 130 {
		t.Fatalf("retained after truncate = %d, want 130", got)
	}
	// Cumulative counters are monotone: truncation must not reduce them.
	src, edge = s.CumulativePreservedBytes()
	if src != 100 || edge != 50 {
		t.Fatal("cumulative counters changed by truncation")
	}
}

func TestMarkLost(t *testing.T) {
	s := New()
	s.PutBlob(blob("n1", 1, 10))
	s.AppendSource(1, "s", tp(1, 5))
	s.MarkLost()
	if _, err := s.MaterializeBlob(1, "n1"); err == nil {
		t.Fatal("lost store still restores")
	}
	if _, ok := s.Blob(1, "n1"); ok {
		t.Fatal("lost store still serves blobs")
	}
	// Writes after loss are ignored.
	s.PutBlob(blob("n1", 2, 10))
	if _, ok := s.Blob(2, "n1"); ok {
		t.Fatal("lost store accepted writes")
	}
}

// Property: EdgeLogSince(after) returns exactly the entries with
// EdgeSeq > after, in order, for any append sequence.
func TestEdgeLogSinceProperty(t *testing.T) {
	f := func(n uint8, after uint8) bool {
		s := New()
		for i := uint64(1); i <= uint64(n); i++ {
			s.AppendEdge("d", i, "a", "b", tp(i, 1))
		}
		got := s.EdgeLogSince("d", uint64(after))
		want := 0
		if int(n) > int(after) {
			want = int(n) - int(after)
		}
		if len(got) != want {
			return false
		}
		for k, e := range got {
			if e.EdgeSeq != uint64(after)+uint64(k)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after Commit(v), all blobs and source logs with version < v are
// gone and those at >= v survive.
func TestCommitGCProperty(t *testing.T) {
	f := func(versions []uint8, commit uint8) bool {
		s := New()
		for _, v := range versions {
			if v == 0 {
				continue
			}
			s.PutBlob(blob("n1", uint64(v), 1))
			s.AppendSource(uint64(v), "s", tp(1, 1))
		}
		s.Commit(uint64(commit))
		for _, v := range versions {
			if v == 0 {
				continue
			}
			_, ok := s.Blob(uint64(v), "n1")
			if uint64(v) < s.Committed() && ok {
				return false
			}
			if uint64(v) >= s.Committed() && !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A run appends in admission order behind what the log already holds, the
// store copies the elements (the caller's slice is shared and may be a
// sub-slice of something larger), and only source-side appends count
// toward the preserved-bytes metric.
func TestAppendSourceRun(t *testing.T) {
	src, replica := New(), New()
	src.AppendSource(1, "s", tp(1, 10))
	replica.AppendSourceReplica(1, "s", []*tuple.Tuple{tp(1, 10)})
	run := []*tuple.Tuple{tp(2, 20), tp(3, 30), tp(4, 40)}
	src.AppendSourceRun(1, "s", run[:2])
	replica.AppendSourceReplica(1, "s", run[:2])
	src.AppendSourceRun(1, "s", run[2:])
	replica.AppendSourceReplica(1, "s", run[2:])
	run[0], run[1], run[2] = nil, nil, nil // the logs own their elements
	for name, s := range map[string]*Store{"source": src, "replica": replica} {
		log := s.SourceLog(1, "s")
		if len(log) != 4 {
			t.Fatalf("%s log holds %d tuples, want 4", name, len(log))
		}
		for i, got := range log {
			if got == nil || got.Seq != uint64(i+1) {
				t.Fatalf("%s log out of admission order at %d: %+v", name, i, got)
			}
		}
		if got := s.RetainedBytes(); got != 100 {
			t.Fatalf("%s retains %d bytes, want 100", name, got)
		}
	}
	if got, _ := src.CumulativePreservedBytes(); got != 100 {
		t.Fatalf("source preserved bytes = %d, want 100", got)
	}
	if got, _ := replica.CumulativePreservedBytes(); got != 0 {
		t.Fatalf("replica preserved bytes = %d, want 0", got)
	}
	src.MarkLost()
	src.AppendSourceRun(1, "s", []*tuple.Tuple{tp(5, 50)})
	if got, _ := src.CumulativePreservedBytes(); got != 100 || src.SourceLogLen(1, "s") != 0 {
		t.Fatalf("lost store accepted a run (%d bytes, %d tuples)", got, src.SourceLogLen(1, "s"))
	}
}

// AppendSource stays allocation-free in the steady state: its one-element
// run lives on the caller's stack.
func TestAppendSourceNoAllocPerCall(t *testing.T) {
	s := New()
	one := tp(1, 64)
	if a := testing.AllocsPerRun(5000, func() { s.AppendSource(1, "s", one) }); a != 0 {
		t.Fatalf("AppendSource allocates %.0f times per call, want 0 (log growth aside)", a)
	}
}

// Committed reports the most recent committed version (0 = none).
func (s *Store) Committed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed
}
