package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// chainOps builds the stateful operator set the chain tests snapshot.
func chainOps() []operator.Operator {
	return []operator.Operator{
		operator.NewWindow("w", 32),
		operator.NewAggregate("a"),
		operator.NewMap("m", func(_ *operator.Context, in *tuple.Tuple) *tuple.Tuple { return in }),
	}
}

// feed drives n fixed-seed tuples through every operator.
func feed(t *testing.T, ops []operator.Operator, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tt := &tuple.Tuple{Seq: uint64(rng.Int63()), Size: 64, Kind: fmt.Sprintf("k%02d", rng.Intn(16)), Value: rng.Float64()}
		for _, op := range ops {
			if _, err := operator.Run(op, "", tt); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func markAll(ops []operator.Operator, v uint64) {
	for _, op := range ops {
		op.(operator.DeltaSnapshotter).MarkSnapshot(v)
	}
}

// TestDeltaChainRecoveryByteIdentical is the acceptance-criteria test:
// with a fixed workload seed, restoring from a materialised base+delta
// chain yields operator state byte-identical to restoring from a full blob
// cut at the same instant.
func TestDeltaChainRecoveryByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := chainOps()

	feed(t, ops, rng, 200)
	b1, err := BuildBlob("n1", 1, ops, []byte("rt1"))
	if err != nil {
		t.Fatal(err)
	}
	markAll(ops, 1)

	feed(t, ops, rng, 150)
	b2, err := BuildDeltaBlob("n1", 2, 1, ops, []byte("rt2"))
	if err != nil {
		t.Fatal(err)
	}
	markAll(ops, 2)

	feed(t, ops, rng, 170)
	b3, err := BuildDeltaBlob("n1", 3, 2, ops, []byte("rt3"))
	if err != nil {
		t.Fatal(err)
	}
	if !b2.IsDelta() || !b3.IsDelta() {
		t.Fatalf("chain links did not travel as deltas (b2.Base=%d, b3.Base=%d)", b2.Base, b3.Base)
	}
	if b2.Size >= b2.FullSize || b3.Size >= b3.FullSize {
		t.Fatalf("delta blobs not smaller than full state: %d/%d, %d/%d",
			b2.Size, b2.FullSize, b3.Size, b3.FullSize)
	}

	full, err := BuildBlob("n1", 3, ops, []byte("rt3"))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := MaterializeChain([]*Blob{b1, b2, b3})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Version != 3 || mat.IsDelta() {
		t.Fatalf("materialised blob: version %d, delta=%v", mat.Version, mat.IsDelta())
	}

	fromFull := chainOps()
	if err := RestoreBlob(full, fromFull); err != nil {
		t.Fatal(err)
	}
	fromChain := chainOps()
	if err := RestoreBlob(mat, fromChain); err != nil {
		t.Fatal(err)
	}
	for i := range fromFull {
		a, err := fromFull[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := fromChain[i].Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("operator %s: chain restore differs from full restore (%d vs %d bytes)",
				fromFull[i].ID(), len(a), len(b))
		}
	}
	if !bytes.Equal(mat.EncodeState(), full.EncodeState()) {
		t.Fatal("materialised state bytes differ from the full blob's")
	}
}

func TestMaterializeChainRejectsTorn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := chainOps()
	feed(t, ops, rng, 50)
	b1, _ := BuildBlob("n1", 1, ops, nil)
	markAll(ops, 1)
	feed(t, ops, rng, 50)
	b2, _ := BuildDeltaBlob("n1", 2, 1, ops, nil)
	if !b2.IsDelta() {
		t.Fatal("setup: b2 is not a delta")
	}

	if _, err := MaterializeChain(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := MaterializeChain([]*Blob{b2}); err == nil {
		t.Fatal("chain starting at a delta accepted (base missing)")
	}
	// Non-contiguous base pointer.
	wrong := *b2
	wrong.Base = 9
	if _, err := MaterializeChain([]*Blob{b1, &wrong}); err == nil {
		t.Fatal("non-contiguous chain accepted")
	}
	// A torn upload: payload bytes no longer match the sealed CRC.
	torn := *b2
	torn.Ops = make(map[string][]byte, len(b2.Ops))
	for id, data := range b2.Ops {
		torn.Ops[id] = append([]byte(nil), data...)
	}
	for id := range torn.Ops {
		if len(torn.Ops[id]) > 0 {
			torn.Ops[id][0] ^= 0xff
			break
		}
	}
	if _, err := MaterializeChain([]*Blob{b1, &torn}); err == nil {
		t.Fatal("CRC-violating link accepted")
	}
}

func TestChunkCRCBindsBlobAndIndex(t *testing.T) {
	if ChunkCRC(1, 0) == ChunkCRC(1, 1) {
		t.Fatal("chunk CRC ignores the index")
	}
	if ChunkCRC(1, 0) == ChunkCRC(2, 0) {
		t.Fatal("chunk CRC ignores the blob")
	}
	if ChunkCRC(1, 3) != ChunkCRC(1, 3) {
		t.Fatal("chunk CRC not deterministic")
	}
}

// ChunkCRC is the IEEE CRC of (blobCRC, index) as two big-endian words —
// what crc32.ChecksumIEEE computes over the same eight bytes — and costs no
// allocation (it runs once per chunk on every receiver).
func TestChunkCRCMatchesChecksumIEEE(t *testing.T) {
	want := func(blobCRC uint32, index int) uint32 {
		var buf [8]byte
		binary.BigEndian.PutUint32(buf[0:4], blobCRC)
		binary.BigEndian.PutUint32(buf[4:8], uint32(index))
		return crc32.ChecksumIEEE(buf[:])
	}
	check := func(blobCRC uint32, index int) {
		t.Helper()
		if got, w := ChunkCRC(blobCRC, index), want(blobCRC, index); got != w {
			t.Fatalf("ChunkCRC(%#x, %d) = %#x, want %#x", blobCRC, index, got, w)
		}
	}
	for _, c := range []uint32{0, 1, 0xff, 0x80000000, math.MaxUint32} {
		for _, i := range []int{0, 1, 255, 256, math.MaxInt32, math.MaxUint32, -1} {
			check(c, i)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10000; i++ {
		check(rng.Uint32(), int(rng.Uint32()))
	}
	sink := uint32(0)
	if a := testing.AllocsPerRun(1000, func() { sink += ChunkCRC(0xdeadbeef, 7) }); a != 0 {
		t.Fatalf("ChunkCRC allocates %.0f times per call, want 0", a)
	}
}

// The sealed CRC is the IEEE CRC of EncodeState, though Seal and VerifyCRC
// never build that encoding: for no operators, empty names and states,
// multi-megabyte states, and more operators than sort on the stack.
func TestStateCRCMatchesEncodeState(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	blobs := []*Blob{
		{},
		{Ops: map[string][]byte{}, Runtime: []byte{}},
		{Ops: map[string][]byte{"": nil}},
		{Ops: map[string][]byte{"a": {}, "": {1}}, Runtime: bytesOf(3)},
		{Ops: map[string][]byte{"big": bytesOf(3 << 20), "small": bytesOf(1)}, Runtime: bytesOf(2 << 20)},
	}
	for i := 0; i < 200; i++ {
		b := &Blob{Ops: map[string][]byte{}}
		for n := rng.Intn(20); n > 0; n-- {
			b.Ops[string(bytesOf(rng.Intn(12)))] = bytesOf(rng.Intn(3000))
		}
		if rng.Intn(2) == 0 {
			b.Runtime = bytesOf(rng.Intn(100))
		}
		blobs = append(blobs, b)
	}
	for i, b := range blobs {
		b.Seal()
		if want := crc32.ChecksumIEEE(b.EncodeState()); b.CRC != want {
			t.Fatalf("blob %d (%d operators): sealed CRC %#x, want %#x", i, len(b.Ops), b.CRC, want)
		}
		if !b.VerifyCRC() {
			t.Fatalf("blob %d does not verify after Seal", i)
		}
	}
}

// Every receiver verifies every blob it assembles: for up to eight
// operators that costs no allocation.
func TestVerifyCRCAllocatesNothing(t *testing.T) {
	b := &Blob{Ops: map[string][]byte{}, Runtime: []byte("runtime")}
	for i := 0; i < 8; i++ {
		b.Ops[fmt.Sprintf("op-%d", i)] = bytes.Repeat([]byte{byte(i)}, 1000)
	}
	b.Seal()
	if a := testing.AllocsPerRun(100, func() {
		if !b.VerifyCRC() {
			t.Fatal("blob does not verify")
		}
	}); a != 0 {
		t.Fatalf("VerifyCRC allocates %.1f objects per call, want 0", a)
	}
}

// TestAlignmentConcurrentTokensAndAbort hammers one tracker with parallel
// token arrivals, concurrent telemetry reads and mid-alignment aborts —
// the shape recovery creates when it aborts a checkpoint racing the
// executor's token flow. Run under -race in CI. Invariant: a round never
// completes more than once, and an abort always leaves the tracker idle.
func TestAlignmentConcurrentTokensAndAbort(t *testing.T) {
	ups := []string{"u0", "u1", "u2", "u3"}
	a := NewAlignment(ups)
	for round := 1; round <= 300; round++ {
		version := uint64(round)
		var wg sync.WaitGroup
		var completes int32
		for _, u := range ups {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				st, err := a.OnToken(u, version)
				if err == nil && st.Complete {
					atomic.AddInt32(&completes, 1)
				}
			}(u)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Stalled()
			a.Aligning()
			if round%3 == 0 {
				a.Abort()
			}
		}()
		wg.Wait()
		if c := atomic.LoadInt32(&completes); c > 1 {
			t.Fatalf("round %d completed %d times", round, c)
		}
		a.Abort()
		if a.Aligning() != 0 || a.Stalled() != nil {
			t.Fatalf("round %d: abort left tracker aligning", round)
		}
	}
}
