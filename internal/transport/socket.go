package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/wire"
)

// TCP framing: a 4-byte big-endian length (class byte + payload), the
// class byte, then the wire-encoded frame. The first frame on every
// connection must be a KindHello identifying the dialer, so the accepting
// side can attribute traffic and learn the dialer's listen address.

const (
	// maxFrameBytes bounds one framed message (64 MB): large enough for
	// any checkpoint blob the simulation produces, small enough that a
	// corrupted length prefix cannot drive allocation to OOM.
	maxFrameBytes = 64 << 20

	// coalesceMax bounds frames that Tell copies into a stream's queue. A
	// larger frame is queued by reference and written from the caller's
	// buffer, so a checkpoint blob is never copied.
	coalesceMax = 8 << 10

	// pendCap bounds the bytes one stream queues for its writer: a Tell
	// that finds the queue full waits, so a peer that never reads pins at
	// most this much sender memory per stream besides the block in flight.
	// 64 KB batches the relay benchmark's frames as well as 256 KB did, and
	// its set-up time stays closer to the per-frame write's.
	pendCap = 64 << 10

	// closeDrain bounds how long Close lets the writers flush what Tells
	// queued before it closes their connections anyway.
	closeDrain = 2 * time.Second

	// readBufBytes sizes the one buffered reader per inbound connection:
	// header and body of a small frame, and the next few frames already in
	// the kernel buffer, cost one read(2) between them. It mirrors the send
	// side: a frame that Tell copies fits, a larger one is read straight
	// into its body. Keep the read-ahead small: a receiver
	// that drains tens of frames in one gulp holds a large share of a
	// flow-controlled pipeline's in-flight frames and starves its
	// neighbours in bursts (at 64 KB the benchmark's relay chain kept the
	// cores ~10 % less busy in about half of all runs).
	readBufBytes = coalesceMax
	// recvChunkBytes sizes the arrays an inbound connection carves the
	// bodies of frames up to coalesceMax from (see frameReader).
	recvChunkBytes = 4 * readBufBytes
	// bodyStep bounds what a frame's length prefix alone may allocate; past
	// it the body grows only as fast as its bytes arrive.
	bodyStep = 1 << 20

	dialAttempts = 4
	dialTimeout  = 2 * time.Second
	retryBackoff = 25 * time.Millisecond
)

type connKey struct {
	id    simnet.NodeID
	class simnet.Class
}

// sendConn is one outbound (peer, class) stream. Tell frames a small
// message into pend and returns; one writer goroutine (run) owns the TCP
// connection, hands everything queued to the kernel in one write, and
// redials when the connection dies. pend ping-pongs with spare, so the
// steady state allocates nothing. A large frame is queued as its header in
// pend plus a reference in bigs, and written in place with writev. Order
// per stream holds because Tells append under mu and the writer writes
// what it takes as one block, re-queueing ahead of later frames whatever a
// failed write did not hand over whole. The stream outlives its
// connections: it leaves Socket.conns when a redial gives up or on Close.
type sendConn struct {
	s    *Socket
	key  connKey
	done chan struct{} // closed when the writer exits

	mu   sync.Mutex
	work sync.Cond // the writer waits for frames, a dead conn or Close
	room sync.Cond // Tells wait for queue space, or for their large frame

	c         net.Conn // the live connection; nil from its death to the redial
	broken    bool     // watchConn saw c go
	idle      bool     // the writer waits on work
	pend      []byte   // framed messages awaiting the writer
	spare     []byte   // recycled backing array for the next pend
	bigs      []bigRef // large frames whose headers sit in pend, in order
	spareBigs []bigRef
	payload   int64 // frame bytes in pend, headers excluded (for SentBytes)
	// queued and written count stream bytes, headers included: a large
	// frame has reached the kernel once written covers its end.
	queued, written int64
	closing         bool  // Close is draining the stream
	err             error // sticky: the stream gave up or was closed
}

// bigRef is a large frame queued by reference; its 5-byte header ends at
// pend offset at.
type bigRef struct {
	at    int
	frame []byte
}

func newSendConn(s *Socket, key connKey, c net.Conn) *sendConn {
	sc := &sendConn{s: s, key: key, c: c, done: make(chan struct{})}
	sc.work.L, sc.room.L = &sc.mu, &sc.mu
	return sc
}

// appendHeader appends a framed message's 4-byte length and class byte.
func appendHeader(dst []byte, class simnet.Class, frameLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameLen+1))
	return append(dst, byte(class))
}

// appendFramed appends one length-prefixed message — 4-byte length, class
// byte, frame — onto dst.
func appendFramed(dst []byte, class simnet.Class, frame []byte) []byte {
	return append(appendHeader(dst, class, len(frame)), frame...)
}

// tell queues one frame. A small frame is copied and tell returns; a large
// one is borrowed, and tell returns once it has reached the kernel. Either
// waits first while the queue is full.
func (sc *sendConn) tell(frame []byte) error {
	big := len(frame) > coalesceMax
	need := 5
	if !big {
		need += len(frame)
	}
	sc.mu.Lock()
	for sc.err == nil && !sc.closing && len(sc.pend) > 0 && len(sc.pend)+need > pendCap {
		sc.room.Wait()
	}
	err := sc.err
	if err == nil && sc.closing {
		err = errClosed
	}
	if err != nil {
		sc.mu.Unlock()
		return err
	}
	if big {
		sc.pend = appendHeader(sc.pend, sc.key.class, len(frame))
		sc.bigs = append(sc.bigs, bigRef{at: len(sc.pend), frame: frame})
	} else {
		sc.pend = appendFramed(sc.pend, sc.key.class, frame)
	}
	sc.payload += int64(len(frame))
	sc.queued += int64(5 + len(frame))
	if sc.idle {
		sc.idle = false
		sc.work.Signal()
	}
	if big {
		end := sc.queued
		for sc.written < end && sc.err == nil {
			sc.room.Wait()
		}
		if sc.written < end {
			err = sc.err
		}
	}
	sc.mu.Unlock()
	return err
}

// run is the stream's writer. It exits once Close has drained the stream
// or a redial gave up.
func (sc *sendConn) run() {
	defer sc.s.wg.Done()
	defer close(sc.done)
	for {
		c, buf, bigs, payload, ok := sc.next()
		switch {
		case !ok:
			return
		case c == nil:
			if !sc.redial() {
				return
			}
		default:
			n, err := writeBlock(c, buf, bigs)
			sc.wrote(c, buf, bigs, payload, n, err)
		}
	}
}

// next waits for work and claims it: the connection and the queued block
// to write, or a nil connection when it died and must be redialed first.
// A dead connection is redialed only once there is something to send, so
// a restarting peer gets the whole dial budget. ok is false once the
// stream is done: Close found it drained, or its connection gone.
func (sc *sendConn) next() (c net.Conn, buf []byte, bigs []bigRef, payload int64, ok bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		for len(sc.pend) == 0 && !sc.closing && !sc.broken {
			sc.idle = true
			sc.work.Wait()
		}
		sc.idle = false
		if sc.broken {
			sc.s.connDead(sc.key, sc.c)
			sc.c, sc.broken = nil, false
			continue
		}
		if sc.closing && (len(sc.pend) == 0 || sc.c == nil) {
			if sc.c != nil {
				sc.c.Close()
				sc.c = nil
			}
			sc.dropLocked(errClosed)
			return nil, nil, nil, 0, false
		}
		if sc.c == nil {
			return nil, nil, nil, 0, true
		}
		buf, bigs, payload = sc.pend, sc.bigs, sc.payload
		sc.pend, sc.bigs, sc.payload = sc.spare[:0], sc.spareBigs[:0], 0
		sc.spare, sc.spareBigs = nil, nil
		sc.room.Broadcast() // the queue has room again
		return sc.c, buf, bigs, payload, true
	}
}

// writeBlock hands one block to the kernel: one write(2), or one writev
// when large frames ride in it by reference.
func writeBlock(c net.Conn, buf []byte, bigs []bigRef) (int64, error) {
	if len(bigs) == 0 {
		n, err := c.Write(buf)
		return int64(n), err
	}
	vec := make(net.Buffers, 0, 2*len(bigs)+1)
	at := 0
	for _, b := range bigs {
		vec = append(vec, buf[at:b.at], b.frame)
		at = b.at
	}
	vec = append(vec, buf[at:])
	return vec.WriteTo(c)
}

// wrote settles a block's write of n bytes. On success the stream advances
// and the block's arrays are recycled. On failure the frames the kernel did
// not take whole go back ahead of anything queued since, to be re-sent
// from their first byte on the next connection, and this one is dead.
func (sc *sendConn) wrote(c net.Conn, buf []byte, bigs []bigRef, payload, n int64, err error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err != nil {
		k, _, done, donePayload := sentPrefix(buf, bigs, n)
		sc.requeueLocked(buf[k:], bigs, k, payload-donePayload)
		n, payload = done, donePayload
		if sc.c == c {
			sc.s.connDead(sc.key, c)
			sc.c, sc.broken = nil, false
		}
	} else {
		clear(bigs) // drop the borrowed frames
		sc.spare, sc.spareBigs = buf[:0], bigs[:0]
	}
	sc.written += n
	atomic.AddInt64(&sc.s.sentBytes[sc.key.class], payload)
	sc.room.Broadcast()
}

// sentPrefix measures the whole frames in the first n stream bytes of a
// block: they end at pend offset k and carry payload frame bytes.
func sentPrefix(buf []byte, bigs []bigRef, n int64) (k, frames int, done, payload int64) {
	for k < len(buf) {
		size := 4 + int64(binary.BigEndian.Uint32(buf[k:]))
		if done+size > n {
			break
		}
		step := int(size)
		if len(bigs) > 0 && bigs[0].at == k+5 {
			step, bigs = 5, bigs[1:]
		}
		k, frames, done, payload = k+step, frames+1, done+size, payload+size-5
	}
	return k, frames, done, payload
}

// requeueLocked puts rest, the unsent tail of a block that began at pend
// offset k with large frames bigs, back ahead of what was queued since.
func (sc *sendConn) requeueLocked(rest []byte, bigs []bigRef, k int, payload int64) {
	pend := make([]byte, 0, len(rest)+len(sc.pend))
	pend = append(append(pend, rest...), sc.pend...)
	var refs []bigRef
	for _, b := range bigs {
		if b.at > k {
			refs = append(refs, bigRef{at: b.at - k, frame: b.frame})
		}
	}
	for _, b := range sc.bigs {
		refs = append(refs, bigRef{at: b.at + len(rest), frame: b.frame})
	}
	sc.pend, sc.bigs = pend, refs
	sc.payload += payload
}

// redial replaces the dead connection with the first dial's attempts and
// backoff. If they all fail the stream gives up: it leaves the map, so the
// next Tell dials afresh; its error is sticky for Tells that still hold
// it; and what it had queued is dropped.
func (sc *sendConn) redial() bool {
	s := sc.s
	c, err := s.dial(sc.key.id)
	if err == nil {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		if s.ctx.Err() != nil { // Close stopped waiting for this stream
			c.Close()
			return true
		}
		sc.c = c
		s.redials.Add(1)
		s.emit("conn.redial", string(sc.key.id))
		s.wg.Add(1)
		go s.watchConn(sc, c)
		return true
	}
	s.mu.Lock()
	if s.conns[sc.key] == sc {
		delete(s.conns, sc.key)
		s.redialPending[sc.key] = true
	}
	s.mu.Unlock()
	sc.mu.Lock()
	sc.dropLocked(fmt.Errorf("transport: tell %s/%s: %w", sc.key.id, sc.key.class, err))
	sc.mu.Unlock()
	return false
}

// dropLocked ends the stream with err: what is queued is discarded and
// journaled, and every waiting Tell is released.
func (sc *sendConn) dropLocked(err error) {
	sc.err = err
	if _, frames, lost, _ := sentPrefix(sc.pend, sc.bigs, math.MaxInt64); frames > 0 {
		sc.s.emit("conn.drop", fmt.Sprintf("%s: %d frames, %d bytes", sc.key.id, frames, lost))
	}
	clear(sc.bigs)
	sc.pend, sc.bigs, sc.payload = nil, nil, 0
	sc.room.Broadcast()
}

// Socket is the real-network transport: reliable ordered Tell over
// per-(peer, class) TCP streams with length-prefixed framing, a writer per
// stream, dial retry and a hello handshake.
type Socket struct {
	info info
	ln   net.Listener
	// ctx is cancelled when Close stops waiting for the writers, which
	// aborts their dials.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	peers   map[simnet.NodeID]string // dialable addresses
	conns   map[connKey]*sendConn
	inbound map[net.Conn]struct{}
	closed  bool
	// redialPending marks (peer, class) keys whose stream gave up, so the
	// next stream's first dial counts as a redial.
	redialPending map[connKey]bool

	deadConns atomic.Int64
	redials   atomic.Int64
	journal   atomic.Pointer[obs.Journal]
	sentBytes [simnet.ClassPreserve + 1]int64

	h  atomic.Value // Handler
	wg sync.WaitGroup
}

// stats is a point-in-time snapshot of the transport's connection health.
type stats struct {
	// DeadConns counts connections discarded after a write failure or
	// after the peer went away.
	DeadConns int64
	// Redials counts successful dials that replaced a dead connection.
	Redials int64
}

// SetJournal attaches a lifecycle journal: dead connections, redials and
// frames dropped by a stream that gave up become structured events
// alongside the counters. Nil detaches.
func (s *Socket) SetJournal(j *obs.Journal) { s.journal.Store(j) }

func (s *Socket) emit(kind, detail string) {
	s.journal.Load().Emit(obs.Event{
		At: time.Now().UnixNano(), Kind: kind, Node: string(s.info.ID), Detail: detail,
	})
}

// Stats reports connection-health counters since the socket was created.
func (s *Socket) Stats() stats {
	return stats{DeadConns: s.deadConns.Load(), Redials: s.redials.Load()}
}

// SentBytes reports the payload bytes the socket's writers have handed to
// the kernel on one traffic class.
func (s *Socket) SentBytes(class simnet.Class) int64 {
	return atomic.LoadInt64(&s.sentBytes[class])
}

// NewSocket listens on listen ("host:port", port 0 for ephemeral) for TCP.
// advertise is the address peers dial to reach this node;
// empty means the listener's own address (right for loopback and
// single-host tests; multi-host deployments pass an externally routable
// address).
func NewSocket(id simnet.NodeID, listen, advertise string) (*Socket, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
	}
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Socket{
		info:          info{ID: id, Addr: advertise},
		ctx:           ctx,
		cancel:        cancel,
		ln:            ln,
		peers:         make(map[simnet.NodeID]string),
		conns:         make(map[connKey]*sendConn),
		inbound:       make(map[net.Conn]struct{}),
		redialPending: make(map[connKey]bool),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Info reports the node's identity and advertised address.
func (s *Socket) Info() info { return s.info }

// AddPeer records a peer's dialable address. Accepted connections add
// their dialer automatically via the hello handshake.
func (s *Socket) AddPeer(id simnet.NodeID, addr string) {
	s.mu.Lock()
	s.peers[id] = addr
	s.mu.Unlock()
}

// Peers lists the known peer IDs.
func (s *Socket) Peers() []simnet.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]simnet.NodeID, 0, len(s.peers))
	for id := range s.peers {
		out = append(out, id)
	}
	return out
}

// PeerAddr reports a peer's recorded address.
func (s *Socket) PeerAddr(id simnet.NodeID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, ok := s.peers[id]
	return addr, ok
}

// WaitPeers blocks until at least n peers are known or the timeout
// elapses. Region setup uses it to wait for workers to join.
func (s *Socket) WaitPeers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		have := len(s.peers)
		s.mu.Unlock()
		if have >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: %d of %d peers joined within %v", have, n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Receive installs the frame handler.
func (s *Socket) Receive(h Handler) { s.h.Store(h) }

func (s *Socket) handler() Handler {
	h, _ := s.h.Load().(Handler)
	return h
}

// Tell queues the frame on the (to, class) stream, whose writer delivers
// it in order; the first Tell to a peer dials (with retry and a hello
// handshake) before it returns. A frame of up to coalesceMax bytes is
// copied and Tell returns at once; a larger one is borrowed, and Tell
// returns once it has reached the kernel. Either waits while the stream's
// queue is full. After a redial gave up, Tells holding that stream return
// its error and the next Tell dials afresh.
func (s *Socket) Tell(to simnet.NodeID, class simnet.Class, frame []byte) error {
	if len(frame)+1 > maxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	sc, err := s.stream(to, class)
	if err != nil {
		return err
	}
	return sc.tell(frame)
}

// Close shuts the listener and every inbound connection, stops new Tells,
// and lets every writer flush what Tells queued; past closeDrain it closes
// their connections anyway and journals what they drop.
func (s *Socket) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	streams := make([]*sendConn, 0, len(s.conns))
	for _, sc := range s.conns {
		streams = append(streams, sc)
	}
	inbound := make([]net.Conn, 0, len(s.inbound))
	for c := range s.inbound {
		inbound = append(inbound, c)
	}
	s.conns = map[connKey]*sendConn{}
	s.inbound = map[net.Conn]struct{}{}
	s.mu.Unlock()

	s.ln.Close()
	for _, c := range inbound {
		c.Close()
	}
	for _, sc := range streams {
		sc.mu.Lock()
		sc.closing = true
		sc.work.Signal()
		sc.room.Broadcast()
		sc.mu.Unlock()
	}
	drain := time.NewTimer(closeDrain)
	defer drain.Stop()
	for i, sc := range streams {
		select {
		case <-sc.done:
			continue
		case <-drain.C:
		}
		s.cancel()
		for _, sc := range streams[i:] {
			sc.mu.Lock()
			if sc.c != nil { // fails the write in flight
				sc.c.Close()
				sc.c, sc.broken = nil, false
			}
			sc.mu.Unlock()
		}
		break
	}
	s.cancel()
	s.wg.Wait()
	return nil
}

// stream returns the (to, class) stream, dialing and handshaking its first
// connection and starting its writer if needed.
func (s *Socket) stream(to simnet.NodeID, class simnet.Class) (*sendConn, error) {
	key := connKey{to, class}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	if sc, ok := s.conns[key]; ok {
		s.mu.Unlock()
		return sc, nil
	}
	s.mu.Unlock()

	c, err := s.dial(to)
	if err != nil {
		if err == errUnknownPeer || err == errClosed {
			return nil, err
		}
		return nil, fmt.Errorf("transport: tell %s/%s: %w", to, class, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		c.Close()
		return nil, errClosed
	}
	if prior, ok := s.conns[key]; ok {
		// A concurrent Tell won the dial race; keep its stream.
		c.Close()
		return prior, nil
	}
	if s.redialPending[key] {
		delete(s.redialPending, key)
		s.redials.Add(1)
		s.emit("conn.redial", string(to))
	}
	sc := newSendConn(s, key, c)
	s.conns[key] = sc
	s.startLocked(sc)
	return sc, nil
}

// startLocked starts a new stream's writer and its connection's watcher.
// Called with s.mu held.
func (s *Socket) startLocked(sc *sendConn) {
	s.wg.Add(2)
	go sc.run()
	go s.watchConn(sc, sc.c)
}

// dial connects to the peer's current address and sends the hello, making
// dialAttempts attempts with exponential backoff between them. Close's
// give-up cancels it.
func (s *Socket) dial(to simnet.NodeID) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(retryBackoff << (attempt - 1))
			select {
			case <-t.C:
			case <-s.ctx.Done():
				t.Stop()
				return nil, errClosed
			}
		}
		addr, ok := s.PeerAddr(to)
		if !ok {
			return nil, errUnknownPeer
		}
		c, err := d.DialContext(s.ctx, "tcp", addr)
		if err == nil {
			hello := wire.AppendHello(nil, &wire.Hello{ID: s.info.ID, Addr: s.info.Addr})
			if err = writeFrame(c, simnet.ClassControl, hello); err == nil {
				return c, nil
			}
			c.Close()
		}
		lastErr = err
	}
	return nil, lastErr
}

// watchConn blocks reading an outbound connection, which the peer never
// writes to: anything Read returns means the connection is gone. It closes
// the connection, so a write blocked on it fails, and tells the writer,
// which retires it and redials before it writes again.
func (s *Socket) watchConn(sc *sendConn, c net.Conn) {
	defer s.wg.Done()
	var buf [1]byte
	c.Read(buf[:])
	c.Close()
	sc.mu.Lock()
	if sc.c == c {
		sc.broken = true
		sc.work.Signal()
	}
	sc.mu.Unlock()
}

// connDead retires a stream's connection that failed or went away.
func (s *Socket) connDead(key connKey, c net.Conn) {
	c.Close()
	s.deadConns.Add(1)
	s.emit("conn.dead", string(key.id))
}

// writeFrame writes one framed message in a single syscall. Only the
// per-dial hello uses it; streams write through their writer, which
// reuses its buffers.
func writeFrame(c net.Conn, class simnet.Class, frame []byte) error {
	_, err := c.Write(appendFramed(make([]byte, 0, 5+len(frame)), class, frame))
	return err
}

// readLen reads and checks one framed message's length prefix.
func readLen(r *bufio.Reader) (int, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n < 1 || n > maxFrameBytes {
		return 0, fmt.Errorf("transport: frame length %d out of range", n)
	}
	r.Discard(4) // cannot fail: Peek buffered these bytes
	return n, nil
}

// readBody reads a frame body of n bytes (class byte included) into a
// fresh array. The length prefix alone allocates at most bodyStep: past
// that the body doubles only once everything allocated so far has arrived,
// so a peer that announces a huge frame and stalls pins memory in
// proportion to what it actually sent. A body larger than r's buffer is
// read straight into place, not through the buffer.
func readBody(r *bufio.Reader, n int) (simnet.Class, []byte, error) {
	body := make([]byte, min(n, bodyStep))
	for have := 0; ; have = len(body) {
		if have > 0 {
			grown := make([]byte, min(n, 2*have))
			copy(grown, body)
			body = grown
		}
		if _, err := io.ReadFull(r, body[have:]); err != nil {
			return 0, nil, err
		}
		if len(body) == n {
			return simnet.Class(body[0]), body[1:], nil
		}
	}
}

// frameReader reads the frames of one inbound connection. Bodies of up to
// coalesceMax bytes are carved from a chunk of recvChunkBytes, as
// tuple.Slab carves tuples: a carved range is never handed out again, so
// every frame still belongs to its handler, and the collector frees a
// chunk once no frame carved from it is referenced. Each body is capped at
// its length, so a handler that appends to its frame reallocates instead
// of writing over the next one. Larger bodies take readBody's path.
type frameReader struct {
	r     *bufio.Reader
	chunk []byte // the current chunk's uncarved tail
}

func (fr *frameReader) next() (simnet.Class, []byte, error) {
	n, err := readLen(fr.r)
	if err != nil {
		return 0, nil, err
	}
	if n-1 > coalesceMax {
		return readBody(fr.r, n)
	}
	class, err := fr.r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if len(fr.chunk) < n-1 {
		fr.chunk = make([]byte, recvChunkBytes)
	}
	body := fr.chunk[: n-1 : n-1]
	fr.chunk = fr.chunk[n-1:]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return 0, nil, err
	}
	return simnet.Class(class), body, nil
}

func (s *Socket) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn handles one inbound connection: a hello first, then frames
// dispatched to the handler in arrival (FIFO) order.
func (s *Socket) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.inbound[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inbound, c)
		s.mu.Unlock()
	}()
	// The hello is read into its own body, so a connection that never
	// completes one costs no receive chunk.
	fr := frameReader{r: bufio.NewReaderSize(c, readBufBytes)}
	n, err := readLen(fr.r)
	if err != nil {
		return
	}
	_, first, err := readBody(fr.r, n)
	if err != nil {
		return
	}
	hello, err := wire.DecodeHello(first)
	if err != nil {
		return // not speaking our protocol
	}
	if hello.Addr != "" {
		s.AddPeer(hello.ID, hello.Addr)
	}
	for {
		class, frame, err := fr.next()
		if err != nil {
			return
		}
		if h := s.handler(); h != nil {
			h(hello.ID, class, frame)
		}
	}
}
