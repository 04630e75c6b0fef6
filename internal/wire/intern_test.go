package wire

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mobistreams/internal/tuple"
)

// namedStream is a stream frame whose six names are the given ones.
func namedStream(t testing.TB, names [6]string) []byte {
	t.Helper()
	frame, err := AppendStream(nil, &Stream{
		FromSlot: names[0], FromOp: names[1], ToSlot: names[2], ToOp: names[3], EdgeSeq: 1,
		Item: tuple.DataItem(&tuple.Tuple{Seq: 1, Source: names[4], Kind: names[5], Value: []byte{7}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// streamNames lists a decoded stream's six names in namedStream's order.
func streamNames(m *Stream) [6]string {
	return [6]string{m.FromSlot, m.FromOp, m.ToSlot, m.ToOp, m.Item.Tuple.Source, m.Item.Tuple.Kind}
}

// liveHeap reports the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestInternDistinctNamesStayBounded decodes frames carrying 100k distinct
// names, some longer than internMaxLen: every decoded name equals its
// bytes, the table holds no name longer than internMaxLen, and the heap it
// retains stays within its fixed size (retaining every name would take
// megabytes).
func TestInternDistinctNamesStayBounded(t *testing.T) {
	const total = 100_000
	base := liveHeap()
	pad := strings.Repeat("x", 50)
	for i := 0; i < total; i += 6 {
		var names [6]string
		for j := range names {
			names[j] = fmt.Sprintf("%s-%07d", pad, i+j) // 58 bytes
			if (i+j)%97 == 0 {
				names[j] += pad // past internMaxLen: bypasses the table
			}
		}
		m, err := DecodeStream(namedStream(t, names))
		if err != nil {
			t.Fatal(err)
		}
		if got := streamNames(&m); got != names {
			t.Fatalf("frame %d: decoded names %q, want %q", i/6, got, names)
		}
	}
	held := 0
	for i := range internTable {
		if p := internTable[i].Load(); p != nil {
			if len(*p) > internMaxLen {
				t.Fatalf("slot %d holds a %d-byte name, longer than %d", i, len(*p), internMaxLen)
			}
			held += len(*p)
		}
	}
	if held > internSlots*internMaxLen {
		t.Fatalf("table holds %d name bytes, want <= %d", held, internSlots*internMaxLen)
	}
	// Each slot holds one string (<= 64 B) behind one pointer (16 B); 1 MB
	// of slack covers the collector and test garbage.
	if grew := int64(liveHeap()) - int64(base); grew > internSlots*(internMaxLen+16)+1<<20 {
		t.Fatalf("live heap grew %d bytes after %d distinct names", grew, total)
	}
}

// TestInternNamesDoNotAliasFrame overwrites frames after decoding them, on
// a cold table (every name a miss) and a warm one (every name a hit): no
// decoded name changes, whichever decoder read it.
func TestInternNamesDoNotAliasFrame(t *testing.T) {
	names := [6]string{"alias-from-slot", "alias-from-op", "alias-to-slot", "alias-to-op", "alias-src", "alias-kind"}
	for _, round := range []string{"cold", "warm"} {
		stream := namedStream(t, names)
		batch, err := AppendBatch(nil, &Batch{ToSlot: names[2], Msgs: []Stream{{
			FromSlot: names[0], FromOp: names[1], ToSlot: names[2], ToOp: names[3], EdgeSeq: 1,
			Item: tuple.DataItem(&tuple.Tuple{Seq: 1, Source: names[4], Kind: names[5]}),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := AppendPreserve(nil, &preserve{Version: 1, Source: names[4],
			T: &tuple.Tuple{Seq: 1, Source: names[4], Kind: names[5]}})
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeStream(stream)
		if err != nil {
			t.Fatal(err)
		}
		b, err := DecodeBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		p, err := decodePreserve(pres)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][]byte{stream, batch, pres} {
			for i := range f {
				f[i] = 'X'
			}
		}
		if got := streamNames(&m); got != names {
			t.Errorf("%s: stream names %q after the frame was overwritten, want %q", round, got, names)
		}
		if got := streamNames(&b.Msgs[0]); got != names || b.ToSlot != names[2] {
			t.Errorf("%s: batch names %q (ToSlot %q) after the frame was overwritten, want %q", round, got, b.ToSlot, names)
		}
		if p.Source != names[4] || p.T.Source != names[4] || p.T.Kind != names[5] {
			t.Errorf("%s: preserve names %q %q %q after the frame was overwritten", round, p.Source, p.T.Source, p.T.Kind)
		}
	}
}

// bucketNames returns n names whose home slots share one bucket.
func bucketNames(n int) []string {
	byBucket := map[int][]string{}
	for i := 0; ; i++ {
		s := fmt.Sprintf("collide-%d", i)
		bucket := internHome([]byte(s)) >> 1
		if byBucket[bucket] = append(byBucket[bucket], s); len(byBucket[bucket]) == n {
			return byBucket[bucket]
		}
	}
}

// TestInternCollidingNamesConcurrently has two goroutines decode frames
// whose names all fall in one bucket, so they evict each other's entries
// while the other reads them. Every decoded name still equals its bytes;
// under -race this also checks the table's publication.
func TestInternCollidingNamesConcurrently(t *testing.T) {
	names := bucketNames(4)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		a, b := names[2*g], names[2*g+1]
		want := [6]string{a, b, a, b, a, b}
		frame := namedStream(t, want)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				m, err := DecodeStream(frame)
				if err != nil {
					t.Error(err)
					return
				}
				if got := streamNames(&m); got != want {
					t.Errorf("decoded names %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInternTwoNamesSharingAHomeSlotBothHit: a name whose home slot is
// taken settles in the neighbouring slot, so two hot names that hash
// together both decode without allocating.
func TestInternTwoNamesSharingAHomeSlotBothHit(t *testing.T) {
	var a, b []byte
	for i := 0; b == nil; i++ {
		s := []byte(fmt.Sprintf("home-%d", i))
		switch {
		case a == nil:
			a = s
		case internHome(s) == internHome(a):
			b = s
		}
	}
	home := internHome(a)
	internTable[home].Store(nil)
	internTable[home^1].Store(nil)
	if intern(a) != string(a) || intern(b) != string(b) {
		t.Fatal("interned names differ from their bytes")
	}
	if allocs := testing.AllocsPerRun(100, func() { intern(a); intern(b) }); allocs != 0 {
		t.Fatalf("interning two names that share a home slot allocated %.1f per pair, want 0", allocs)
	}
}

// TestInternNamesSettleInAFullBucket fills every slot of a bucket with
// other names, as a long-lived process leaves it, and then interns
// internWays names of that bucket, two of them sharing a home slot: after
// warm-up all of them hit without allocating.
func TestInternNamesSettleInAFullBucket(t *testing.T) {
	a := []byte("full-0")
	names := [][]byte{a}
	for i := 1; len(names) < internWays; i++ {
		s := []byte(fmt.Sprintf("full-%d", i))
		if len(names) == 1 && internHome(s) == internHome(a) || len(names) > 1 && internHome(s)/internWays == internHome(a)/internWays {
			names = append(names, s)
		}
	}
	bucket := internHome(a) / internWays
	for i := 0; i < internWays; i++ {
		other := fmt.Sprintf("other-%d", i)
		internTable[bucket*internWays+i].Store(&other)
	}
	for round := 0; round < internWays; round++ {
		for _, n := range names {
			if intern(n) != string(n) {
				t.Fatal("interned name differs from its bytes")
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, n := range names {
			intern(n)
		}
	}); allocs != 0 {
		t.Fatalf("interning %d names of one full bucket allocated %.1f per round, want 0", len(names), allocs)
	}
}

// TestDecodeStreamAllocs pins what decoding a stream frame with a []byte
// value allocates once its names are in the table: the tuple and its
// value's box. Copying the six names out of every frame made it 8.
func TestDecodeStreamAllocs(t *testing.T) {
	m := relayBatch(1).Msgs[0]
	frame, err := AppendStream(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeStream(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("DecodeStream allocated %.1f per frame, want <= 2", allocs)
	}
}
