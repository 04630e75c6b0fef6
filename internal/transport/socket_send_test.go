package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
)

// fakeConn is a net.Conn for exercising the send path without a network:
// every Write is recorded (and optionally gated or cut short), Read blocks
// until Close, nothing else does anything.
type fakeConn struct {
	mu      sync.Mutex
	writes  int
	bytes   []byte
	discard bool          // don't record bytes (keeps alloc tests clean)
	gate    chan struct{} // when non-nil, each Write blocks until a receive
	cut     int           // when > 0, the next Write takes cut bytes and fails
	closed  chan struct{}
	once    sync.Once
}

func (c *fakeConn) done() chan struct{} {
	c.once.Do(func() { c.closed = make(chan struct{}) })
	return c.closed
}

func (c *fakeConn) Write(b []byte) (int, error) {
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-c.done():
			return 0, net.ErrClosed
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	n, err := len(b), error(nil)
	if c.cut > 0 {
		n, err, c.cut = min(c.cut, n), errors.New("fake: connection reset"), 0
	}
	if !c.discard {
		c.bytes = append(c.bytes, b[:n]...)
	}
	return n, err
}

func (c *fakeConn) Read([]byte) (int, error) {
	<-c.done()
	return 0, net.ErrClosed
}

func (c *fakeConn) Close() error {
	d := c.done()
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-d:
	default:
		close(d)
	}
	return nil
}

func (c *fakeConn) LocalAddr() net.Addr              { return nil }
func (c *fakeConn) RemoteAddr() net.Addr             { return nil }
func (c *fakeConn) SetDeadline(time.Time) error      { return nil }
func (c *fakeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

// parseFramed splits a byte stream into its framed messages.
func parseFramed(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(b) > 0 {
		if len(b) < 5 {
			t.Fatalf("trailing garbage: % x", b)
		}
		n := binary.BigEndian.Uint32(b[:4])
		if int(n) < 1 || 4+int(n) > len(b) {
			t.Fatalf("bad frame length %d in % x", n, b)
		}
		frames = append(frames, b[5:4+n])
		b = b[4+n:]
	}
	return frames
}

// injectConn plants a fake connection as a's stream to peer "b" on the
// control class and starts its writer, so Tell exercises the send path in
// isolation.
func injectConn(t testing.TB, a *Socket, c net.Conn) *sendConn {
	t.Helper()
	a.AddPeer("b", "127.0.0.1:1") // never dialed while the conn lives
	key := connKey{"b", simnet.ClassControl}
	a.mu.Lock()
	defer a.mu.Unlock()
	sc := newSendConn(a, key, c)
	a.conns[key] = sc
	a.startLocked(sc)
	return sc
}

// TestSocketTellCoalesces: Tells made while the writer is inside a write
// return at once, and what they queued reaches the conn as the next single
// write, all frames intact and in order.
func TestSocketTellCoalesces(t *testing.T) {
	a, _ := newSock(t, "a")
	fc := &fakeConn{gate: make(chan struct{})}
	sc := injectConn(t, a, fc)

	if err := a.Tell("b", simnet.ClassControl, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Wait until the writer holds "first" inside its (gated) write.
	waitCond(t, func() bool {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.queued == 10 && len(sc.pend) == 0
	})
	const n = 8
	for i := 0; i < n; i++ {
		if err := a.Tell("b", simnet.ClassControl, []byte{'w', byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	sc.mu.Lock()
	queued := len(sc.pend)
	sc.mu.Unlock()
	if queued != n*(5+2) {
		t.Fatalf("%d bytes queued behind the write, want %d", queued, n*(5+2))
	}
	fc.gate <- struct{}{} // release the first write
	fc.gate <- struct{}{} // ... and the one carrying the other eight
	waitCond(t, func() bool {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.written == sc.queued
	})
	fc.mu.Lock()
	writes, stream := fc.writes, append([]byte(nil), fc.bytes...)
	fc.mu.Unlock()
	if writes != 2 {
		t.Fatalf("%d writes for %d frames, want 2", writes, n+1)
	}
	frames := parseFramed(t, stream)
	if len(frames) != n+1 || string(frames[0]) != "first" {
		t.Fatalf("frames on the wire: %q", frames)
	}
	for i, f := range frames[1:] {
		if string(f) != string([]byte{'w', byte('0' + i)}) {
			t.Fatalf("frame %d = %q: corrupted or out of order", i+1, f)
		}
	}
}

// TestSocketTellFramingZeroAlloc pins the satellite requirement: the
// steady-state Tell framing path allocates nothing — the header+frame
// copy rides a recycled per-conn buffer.
func TestSocketTellFramingZeroAlloc(t *testing.T) {
	a, _ := newSock(t, "a")
	injectConn(t, a, &fakeConn{discard: true})
	frame := make([]byte, 128)
	for i := 0; i < 8; i++ { // warm the recycled buffers
		if err := a.Tell("b", simnet.ClassControl, frame); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := a.Tell("b", simnet.ClassControl, frame); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("framing layer allocates %.1f per Tell, want 0", avg)
	}
}

// TestSocketLargeFrameBypassesPend: a frame over the coalesce bound is
// written directly (header write + body write), never copied into the
// pending buffer, and interleaves correctly with queued small frames.
func TestSocketLargeFrameBypassesPend(t *testing.T) {
	a, _ := newSock(t, "a")
	fc := &fakeConn{}
	sc := injectConn(t, a, fc)
	small := []byte("tiny")
	big := make([]byte, coalesceMax+1)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Tell("b", simnet.ClassControl, small); err != nil {
		t.Fatal(err)
	}
	if err := a.Tell("b", simnet.ClassControl, big); err != nil {
		t.Fatal(err)
	}
	sc.mu.Lock()
	pendCap := cap(sc.pend) + cap(sc.spare)
	sc.mu.Unlock()
	if pendCap > coalesceMax {
		t.Fatalf("large frame was copied into a %d-byte pend buffer", pendCap)
	}
	frames := parseFramed(t, fc.bytes)
	if len(frames) != 2 || string(frames[0]) != "tiny" || len(frames[1]) != len(big) {
		t.Fatalf("stream corrupted: %d frames", len(frames))
	}
}

// TestSocketRedialResendsUnsentFrames: the stream's connection dies in the
// middle of a block while more frames are queued behind it. The writer
// journals the dead conn, redials the peer and re-sends, from its first
// byte, the first frame the failed write did not hand over whole, then
// everything queued since: what the dead conn took whole and what the peer
// receives cover every frame, in order, and nothing is lost.
func TestSocketRedialResendsUnsentFrames(t *testing.T) {
	a, _ := newSock(t, "a")
	j := obs.NewJournal(0)
	a.SetJournal(j)
	b, bc := newSock(t, "b")
	fc := &fakeConn{gate: make(chan struct{})}
	sc := injectConn(t, a, fc)
	a.AddPeer("b", b.Info().Addr) // where the redial goes

	const total, framed = 30, 5 + 4
	tell := func(i int) {
		if err := a.Tell("b", simnet.ClassControl, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// claimed: the writer has taken everything queued into a write.
	claimed := func(written int64) func() bool {
		return func() bool {
			sc.mu.Lock()
			defer sc.mu.Unlock()
			return sc.written == written && len(sc.pend) == 0
		}
	}
	tell(0)
	waitCond(t, claimed(0))
	for i := 1; i < 10; i++ {
		tell(i)
	}
	fc.gate <- struct{}{} // m000 goes through whole
	waitCond(t, claimed(framed))
	fc.mu.Lock()
	fc.cut = 2*framed + 4 // m001 and m002 whole, 4 bytes of m003, then reset
	fc.mu.Unlock()
	for i := 10; i < total; i++ {
		tell(i) // queued behind the failing write
	}
	fc.gate <- struct{}{}

	got := bc.wait(t, total-3, 5*time.Second)
	fc.mu.Lock()
	dead := append([]byte(nil), fc.bytes...)
	fc.mu.Unlock()
	if len(dead) != 3*framed+4 {
		t.Fatalf("dead conn took %d bytes, want %d", len(dead), 3*framed+4)
	}
	var stream []string
	for _, f := range parseFramed(t, dead[:3*framed]) {
		stream = append(stream, string(f))
	}
	for _, r := range got {
		stream = append(stream, string(r.frame))
	}
	if len(stream) != total {
		t.Fatalf("%d frames across both conns, want %d: %q", len(stream), total, stream)
	}
	for i, f := range stream {
		if want := fmt.Sprintf("m%03d", i); f != want {
			t.Fatalf("frame %d = %q, want %q: lost, duplicated or reordered", i, f, want)
		}
	}
	if st := a.Stats(); st.DeadConns != 1 || st.Redials != 1 {
		t.Fatalf("stats %+v, want one dead conn and one redial", st)
	}
	var kinds []string
	for _, ev := range j.Events() {
		kinds = append(kinds, ev.Kind)
	}
	if want := []string{"conn.dead", "conn.redial"}; !slices.Equal(kinds, want) {
		t.Fatalf("journal %q, want %q", kinds, want)
	}
}

// TestSocketNeverDrainingReader: the peer accepts and never reads.
// Concurrent Tells fill the kernel buffers, then the stream's queue, and
// block there: the queue never holds more than pendCap bytes. Close returns
// within its drain bound, releases every blocked Tell with errClosed and
// journals what the stream dropped.
func TestSocketNeverDrainingReader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.(*net.TCPConn).SetReadBuffer(16 << 10)
			accepted <- c
		}
	}()
	a, err := NewSocket("a", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	j := obs.NewJournal(0)
	a.SetJournal(j)
	a.AddPeer("b", ln.Addr().String())
	frame := make([]byte, 1024)
	if err := a.Tell("b", simnet.ClassData, frame); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-accepted:
		defer c.Close() // never read
	case <-time.After(5 * time.Second):
		t.Fatal("the peer never accepted")
	}
	a.mu.Lock()
	sc := a.conns[connKey{"b", simnet.ClassData}]
	a.mu.Unlock()
	sc.mu.Lock()
	sc.c.(*net.TCPConn).SetWriteBuffer(16 << 10)
	sc.mu.Unlock()

	const tellers = 4
	var told atomic.Int64
	errs := make(chan error, tellers)
	for i := 0; i < tellers; i++ {
		go func() {
			for {
				if err := a.Tell("b", simnet.ClassData, frame); err != nil {
					errs <- err
					return
				}
				told.Add(1)
			}
		}()
	}
	// Sample the queue until no Tell has returned for 100 ms while it is full.
	maxQueued, last, still := 0, told.Load(), 0
	deadline := time.Now().Add(20 * time.Second)
	for still < 100 {
		time.Sleep(time.Millisecond)
		sc.mu.Lock()
		maxQueued = max(maxQueued, len(sc.pend))
		full := len(sc.pend)+5+len(frame) > pendCap
		sc.mu.Unlock()
		if n := told.Load(); n != last || !full {
			last, still = n, 0
		} else {
			still++
		}
		if time.Now().After(deadline) {
			sc.mu.Lock()
			st := fmt.Sprintf("pend %d written %d queued %d idle %v", len(sc.pend), sc.written, sc.queued, sc.idle)
			sc.mu.Unlock()
			t.Fatalf("Tells did not settle blocked at a full queue: %d returned, at most %d bytes queued; %s", told.Load(), maxQueued, st)
		}
	}
	if maxQueued > pendCap {
		t.Fatalf("queue held %d bytes, cap %d", maxQueued, pendCap)
	}

	start := time.Now()
	a.Close()
	if took := time.Since(start); took > closeDrain+time.Second {
		t.Fatalf("Close took %v, bound %v", took, closeDrain)
	}
	for i := 0; i < tellers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errClosed) {
				t.Fatalf("blocked Tell returned %v, want errClosed", err)
			}
		case <-time.After(time.Second):
			t.Fatal("a Tell blocked at the cap outlived Close")
		}
	}
	dropped := false
	for _, ev := range j.Events() {
		dropped = dropped || ev.Kind == "conn.drop"
	}
	if !dropped {
		t.Fatalf("journal has no conn.drop: %+v", j.Events())
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkSocketTell measures the real loopback send path; the framing
// layer itself must not allocate (see TestSocketTellFramingZeroAlloc for
// the hard assertion without network noise).
func BenchmarkSocketTell(b *testing.B) {
	a, err := NewSocket("a", "127.0.0.1:0", "")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	rcv, err := NewSocket("b", "127.0.0.1:0", "")
	if err != nil {
		b.Fatal(err)
	}
	defer rcv.Close()
	rcv.Receive(func(simnet.NodeID, simnet.Class, []byte) {})
	a.AddPeer("b", rcv.Info().Addr)
	frame := make([]byte, 256)
	if err := a.Tell("b", simnet.ClassControl, frame); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Tell("b", simnet.ClassControl, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSocketTellFraming isolates the send path on a no-op conn: this
// is the 0 allocs/op path TestSocketTellFramingZeroAlloc pins.
func BenchmarkSocketTellFraming(b *testing.B) {
	a, err := NewSocket("a", "127.0.0.1:0", "")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	injectConn(b, a, &fakeConn{discard: true})
	frame := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Tell("b", simnet.ClassControl, frame); err != nil {
			b.Fatal(err)
		}
	}
}
