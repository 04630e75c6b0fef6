package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"mobistreams/internal/simnet"
	"mobistreams/internal/wire"
)

// dialRaw opens a raw TCP connection to s and introduces itself as "raw",
// so the test controls every byte the receive path sees after the hello.
func dialRaw(t *testing.T, s *Socket) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.Info().Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := writeFrame(c, simnet.ClassControl, wire.AppendHello(nil, &wire.Hello{ID: "raw"})); err != nil {
		t.Fatal(err)
	}
	return c
}

// waitClosed blocks until the server closes its end of c.
func waitClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed by the server: read %d bytes, err %v", n, err)
	}
}

// TestSocketBurstThroughBufferedReader writes 1000 small frames, and one
// larger than the read buffer in their middle, to a raw connection in one
// Write: the handler sees every frame, complete and in order.
func TestSocketBurstThroughBufferedReader(t *testing.T) {
	s, sc := newSock(t, "s")
	c := dialRaw(t, s)
	const n = 1000
	big := make([]byte, readBufBytes+readBufBytes/2)
	for i := range big {
		big[i] = byte(i)
	}
	var burst []byte
	for i := 0; i < n; i++ {
		if i == n/2 {
			burst = appendFramed(burst, simnet.ClassCheckpoint, big)
		}
		burst = appendFramed(burst, simnet.ClassData, []byte(fmt.Sprintf("m%04d", i)))
	}
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := sc.wait(t, n+1, 10*time.Second)
	for i, r := range got {
		want, class := []byte(fmt.Sprintf("m%04d", i)), simnet.ClassData
		switch {
		case i == n/2:
			want, class = big, simnet.ClassCheckpoint
		case i > n/2:
			want = []byte(fmt.Sprintf("m%04d", i-1))
		}
		if r.from != "raw" || r.class != class || !bytes.Equal(r.frame, want) {
			t.Fatalf("frame %d: from %s class %s, %d bytes; want class %s, %d bytes", i, r.from, r.class, len(r.frame), class, len(want))
		}
	}
}

// TestSocketBadLengthClosesConn: a zero length and one over the frame limit
// each close the connection without reaching the handler.
func TestSocketBadLengthClosesConn(t *testing.T) {
	for _, length := range []uint32{0, maxFrameBytes + 1, 1<<32 - 1} {
		s, sc := newSock(t, "s")
		c := dialRaw(t, s)
		if _, err := c.Write(binary.BigEndian.AppendUint32(nil, length)); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, c)
		if got := sc.wait(t, 0, 0); len(got) != 0 {
			t.Fatalf("length %d: handler saw %d frames", length, len(got))
		}
	}
}

// TestSocketGarbageAfterHello: well-framed garbage reaches the handler as
// opaque bytes (the transport does not interpret frames) but none of it
// decodes as a batch; the first out-of-range length ends the connection.
func TestSocketGarbageAfterHello(t *testing.T) {
	s, sc := newSock(t, "s")
	c := dialRaw(t, s)
	rng := rand.New(rand.NewSource(16))
	const n = 64
	var raw []byte
	for i := 0; i < n; i++ {
		junk := make([]byte, 1+rng.Intn(300))
		rng.Read(junk)
		junk[0] = byte(wire.KindBatch) // get past the kind check, into the batch grammar
		raw = appendFramed(raw, simnet.ClassData, junk)
	}
	raw = append(raw, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, c)
	for i, r := range sc.wait(t, n, 5*time.Second) {
		if b, err := wire.DecodeBatch(r.frame); err == nil {
			t.Errorf("garbage frame %d decoded as a batch of %d messages", i, len(b.Msgs))
		}
	}
}

// liveHeap reports the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSocketHugeLengthAllocatesAsBytesArrive announces a 48 MB frame and
// trickles it in. At every point — including a peer that stalls there for
// good — the receiver holds at most one bodyStep plus three times what was
// sent (a body being doubled, next to the one it is copied from), never
// the announced length; the completed frame arrives intact.
func TestSocketHugeLengthAllocatesAsBytesArrive(t *testing.T) {
	s, sc := newSock(t, "s")
	c := dialRaw(t, s)
	const size = 48 << 20
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	base := liveHeap()
	hdr := append(binary.BigEndian.AppendUint32(nil, size+1), byte(simnet.ClassCheckpoint))
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	for sent := 0; sent < size; sent += len(chunk) {
		// 2 MB of slack covers the collector, the read buffer and test garbage.
		if grew, bound := int64(liveHeap())-int64(base), int64(3*sent+bodyStep+2<<20); grew > bound {
			t.Fatalf("after %d of %d body bytes the heap grew %d bytes, want <= %d", sent, size, grew, bound)
		}
		if _, err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	got := sc.wait(t, 1, 10*time.Second)[0]
	if got.class != simnet.ClassCheckpoint || len(got.frame) != size {
		t.Fatalf("got class %s, %d bytes; want %d", got.class, len(got.frame), size)
	}
	for i := 0; i < size; i += len(chunk) {
		if !bytes.Equal(got.frame[i:i+len(chunk)], chunk) {
			t.Fatalf("body corrupted in the MB at offset %d", i)
		}
	}
}

// carveBurst frames n seeded random bodies of mixed sizes: mostly small,
// some at and just past coalesceMax, a few well past it.
func carveBurst(n int) (burst []byte, bodies [][]byte) {
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < n; i++ {
		size := rng.Intn(600)
		switch {
		case i%100 == 7:
			size = coalesceMax
		case i%100 == 8:
			size = coalesceMax + 1
		case i%50 == 9:
			size = coalesceMax + rng.Intn(3*coalesceMax)
		}
		body := make([]byte, size)
		rng.Read(body)
		bodies = append(bodies, body)
		burst = appendFramed(burst, simnet.ClassData, body)
	}
	return burst, bodies
}

// TestSocketCarvedFramesKeptIntact: a handler that keeps every frame of a
// 1,000-frame burst of mixed sizes finds all of them intact once the last
// has arrived, though the small ones share receive chunks.
func TestSocketCarvedFramesKeptIntact(t *testing.T) {
	s, sc := newSock(t, "s")
	c := dialRaw(t, s)
	const n = 1000
	burst, bodies := carveBurst(n)
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i, r := range sc.wait(t, n, 10*time.Second) {
		if !bytes.Equal(r.frame, bodies[i]) {
			t.Fatalf("kept frame %d (%d bytes) changed after later frames arrived", i, len(bodies[i]))
		}
	}
}

// TestSocketCarvedFrameAppendLeavesNextIntact: a handler that appends to
// the frame before the current one (the frame carved just ahead of it)
// leaves the current frame, and every later one, intact.
func TestSocketCarvedFrameAppendLeavesNextIntact(t *testing.T) {
	s, err := NewSocket("s", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	const n = 300
	burst, bodies := carveBurst(n)
	var kept [][]byte
	done := make(chan struct{})
	s.Receive(func(_ simnet.NodeID, _ simnet.Class, frame []byte) {
		if i := len(kept); i > 0 {
			kept[i-1] = append(kept[i-1], bytes.Repeat([]byte{0xEE}, 64)...)
		}
		if !bytes.Equal(frame, bodies[len(kept)]) {
			t.Errorf("frame %d arrived changed", len(kept))
		}
		if kept = append(kept, frame); len(kept) == n {
			close(done)
		}
	})
	c := dialRaw(t, s)
	if _, err := c.Write(burst); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("burst did not arrive")
	}
	for i, f := range kept[:n-1] {
		if !bytes.Equal(f[:len(bodies[i])], bodies[i]) {
			t.Fatalf("frame %d changed", i)
		}
	}
}

// TestSocketCarvesSmallFrameBodies pins the receive path's allocations:
// small frames are carved from shared chunks, so N of them cost at most
// N/50 body allocations (one each when every body was its own array).
func TestSocketCarvesSmallFrameBodies(t *testing.T) {
	const n = 2000
	body := make([]byte, 200)
	var stream []byte
	for i := 0; i <= n; i++ {
		stream = appendFramed(stream, simnet.ClassData, body)
	}
	fr := frameReader{r: bufio.NewReaderSize(bytes.NewReader(stream), readBufBytes)}
	allocs := testing.AllocsPerRun(n, func() {
		if _, f, err := fr.next(); err != nil || len(f) != len(body) {
			t.Fatalf("read %d bytes, %v", len(f), err)
		}
	})
	if allocs > 1.0/50 {
		t.Fatalf("reading a 200-byte frame allocated %.3f times, want <= %.3f", allocs, 1.0/50)
	}
}
