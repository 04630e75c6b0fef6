package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
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

	// coalesceMax bounds frames that ride the shared per-conn pending
	// buffer. Larger frames flush the backlog and then write straight from
	// the caller's buffer, so a checkpoint blob is never copied.
	coalesceMax = 8 << 10

	// readBufBytes sizes the one buffered reader per inbound connection:
	// header and body of a small frame, and the next few frames already in
	// the kernel buffer, cost one read(2) between them. It mirrors the send
	// side: a frame that rides the coalescing buffer fits, a larger one is
	// read straight into its body. Keep the read-ahead small: a receiver
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

// sendConn is one outbound (peer, class) connection with a group-commit
// send path: small frames are framed into a shared pending buffer, and
// whichever goroutine holds the write role flushes everything pending in
// one syscall. The buffer ping-pongs between two recycled backing arrays,
// so the steady-state framing path allocates nothing. Frames appended
// while a flush is in flight ride the next flush; FIFO order per
// connection is preserved because appends are serialised by the mutex and
// the writer always flushes the buffer as one contiguous block.
type sendConn struct {
	mu      sync.Mutex
	flushed sync.Cond // broadcast after every flush attempt
	c       net.Conn
	pend    []byte // framed messages awaiting the writer
	spare   []byte // recycled backing array for the next pend generation
	writing bool   // a goroutine currently holds the write role
	// appended and flushedB are cumulative byte counters: a waiter's frame
	// has reached the kernel exactly when flushedB covers its append point.
	appended int64
	flushedB int64
	err      error // sticky: the first write failure poisons the conn
}

func newSendConn(c net.Conn) *sendConn {
	sc := &sendConn{c: c}
	sc.flushed.L = &sc.mu
	return sc
}

// appendFramed appends one length-prefixed message — 4-byte length, class
// byte, frame — onto dst.
func appendFramed(dst []byte, class simnet.Class, frame []byte) []byte {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(frame)+1))
	hdr[4] = byte(class)
	dst = append(dst, hdr[:]...)
	return append(dst, frame...)
}

// write delivers one framed message with group commit: N concurrent small
// sends on the same connection cost one syscall, not N.
func (sc *sendConn) write(class simnet.Class, frame []byte) error {
	sc.mu.Lock()
	if sc.err != nil {
		err := sc.err
		sc.mu.Unlock()
		return err
	}
	if len(frame) > coalesceMax {
		return sc.writeDirectLocked(class, frame)
	}
	sc.pend = appendFramed(sc.pend, class, frame)
	sc.appended += int64(5 + len(frame))
	myEnd := sc.appended
	for sc.writing {
		if sc.flushedB >= myEnd { // another writer flushed our frame
			sc.mu.Unlock()
			return nil
		}
		if sc.err != nil {
			err := sc.err
			sc.mu.Unlock()
			return err
		}
		sc.flushed.Wait()
	}
	if sc.flushedB >= myEnd {
		sc.mu.Unlock()
		return nil
	}
	if sc.err != nil {
		err := sc.err
		sc.mu.Unlock()
		return err
	}
	buf := sc.swapPendLocked()
	sc.mu.Unlock()

	_, err := sc.c.Write(buf)

	sc.mu.Lock()
	sc.finishFlushLocked(buf, err)
	sc.mu.Unlock()
	return err
}

// writeDirectLocked takes the write role, flushes the pending backlog,
// then writes the header and the caller's frame without copying it.
// Called with mu held; returns with mu released.
func (sc *sendConn) writeDirectLocked(class simnet.Class, frame []byte) error {
	for sc.writing {
		if sc.err != nil {
			err := sc.err
			sc.mu.Unlock()
			return err
		}
		sc.flushed.Wait()
	}
	if sc.err != nil {
		err := sc.err
		sc.mu.Unlock()
		return err
	}
	buf := sc.swapPendLocked()
	sc.mu.Unlock()

	var err error
	if len(buf) > 0 {
		_, err = sc.c.Write(buf)
	}
	if err == nil {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(frame)+1))
		hdr[4] = byte(class)
		if _, err = sc.c.Write(hdr[:]); err == nil {
			_, err = sc.c.Write(frame)
		}
	}

	sc.mu.Lock()
	sc.finishFlushLocked(buf, err)
	sc.mu.Unlock()
	return err
}

// swapPendLocked claims the write role and detaches the pending buffer.
func (sc *sendConn) swapPendLocked() []byte {
	sc.writing = true
	buf := sc.pend
	sc.pend = sc.spare[:0]
	sc.spare = nil
	return buf
}

// finishFlushLocked releases the write role, advances the flush counter
// on success (an error is sticky and fails every queued waiter, whose
// frames may not have reached the wire), and recycles the flushed
// buffer's backing array.
func (sc *sendConn) finishFlushLocked(buf []byte, err error) {
	sc.writing = false
	if err != nil {
		sc.err = err
	} else {
		sc.flushedB += int64(len(buf))
		if cap(buf) > 0 {
			if len(sc.pend) == 0 {
				sc.pend = buf[:0]
			} else {
				sc.spare = buf[:0]
			}
		}
	}
	sc.flushed.Broadcast()
}

// Socket is the real-network transport: reliable ordered Tell over
// per-(peer, class) TCP connections with length-prefixed framing, dial
// retry and a hello handshake.
type Socket struct {
	info info
	ln   net.Listener

	mu      sync.Mutex
	peers   map[simnet.NodeID]string // dialable addresses
	conns   map[connKey]*sendConn
	inbound map[net.Conn]struct{}
	closed  bool
	// redialPending marks (peer, class) keys whose connection died, so the
	// next successful dial counts as a redial rather than a first dial.
	redialPending map[connKey]bool
	deadConns     int64
	redials       int64
	journal       *obs.Journal

	sentBytes [simnet.ClassPreserve + 1]int64

	h  atomic.Value // Handler
	wg sync.WaitGroup
}

// stats is a point-in-time snapshot of the transport's connection health.
type stats struct {
	// DeadConns counts connections discarded after a write failure.
	DeadConns int64
	// Redials counts successful dials that replaced a dead connection.
	Redials int64
}

// SetJournal attaches a lifecycle journal: dead connections and redials
// become structured events alongside the counters. Nil detaches. Not
// safe to call concurrently with Tell.
func (s *Socket) SetJournal(j *obs.Journal) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// Stats reports connection-health counters since the socket was created.
func (s *Socket) Stats() stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stats{DeadConns: s.deadConns, Redials: s.redials}
}

// SentBytes reports the payload bytes Tell has sent on one traffic class.
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
	s := &Socket{
		info:          info{ID: id, Addr: advertise},
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

// Tell reliably delivers the frame over the (to, class) TCP connection,
// dialing (with retry and a hello handshake) on first use and redialing
// once per attempt if an established connection has died.
func (s *Socket) Tell(to simnet.NodeID, class simnet.Class, frame []byte) error {
	if len(frame)+1 > maxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(frame))
	}
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
		}
		sc, err := s.conn(to, class)
		if err != nil {
			if err == errUnknownPeer || err == errClosed {
				return err
			}
			lastErr = err
			continue
		}
		if err = sc.write(class, frame); err == nil {
			atomic.AddInt64(&s.sentBytes[class], int64(len(frame)))
			return nil
		}
		lastErr = err
		s.dropConn(to, class, sc)
	}
	return fmt.Errorf("transport: tell %s/%s: %w", to, class, lastErr)
}

// Close shuts the listeners and every connection down.
func (s *Socket) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns)+len(s.inbound))
	for _, sc := range s.conns {
		conns = append(conns, sc.c)
	}
	for c := range s.inbound {
		conns = append(conns, c)
	}
	s.conns = map[connKey]*sendConn{}
	s.inbound = map[net.Conn]struct{}{}
	s.mu.Unlock()

	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// conn returns the cached (to, class) connection, dialing and handshaking
// a fresh one if needed.
func (s *Socket) conn(to simnet.NodeID, class simnet.Class) (*sendConn, error) {
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
	addr, ok := s.peers[to]
	s.mu.Unlock()
	if !ok {
		return nil, errUnknownPeer
	}

	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	hello := wire.AppendHello(nil, &wire.Hello{ID: s.info.ID, Addr: s.info.Addr})
	if err := writeFrame(c, simnet.ClassControl, hello); err != nil {
		c.Close()
		return nil, err
	}

	sc := newSendConn(c)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return nil, errClosed
	}
	if prior, ok := s.conns[key]; ok {
		// A concurrent Tell won the dial race; keep its connection.
		s.mu.Unlock()
		c.Close()
		return prior, nil
	}
	s.conns[key] = sc
	if s.redialPending[key] {
		delete(s.redialPending, key)
		s.redials++
		s.journal.Emit(obs.Event{
			At: time.Now().UnixNano(), Kind: "conn.redial",
			Node: string(s.info.ID), Detail: string(to),
		})
	}
	s.wg.Add(1)
	go s.watchConn(key, sc)
	s.mu.Unlock()
	return sc, nil
}

// watchConn blocks reading the outbound connection, which the peer never
// writes to: anything Read returns means the connection is gone. The conn
// is poisoned and dropped immediately, so the next Tell redials instead
// of writing a frame into a dead socket — the single-syscall send path
// has no second write to trip over a delayed RST.
func (s *Socket) watchConn(key connKey, sc *sendConn) {
	defer s.wg.Done()
	var buf [1]byte
	_, err := sc.c.Read(buf[:])
	if err == nil {
		err = fmt.Errorf("transport: unexpected data on send-only conn")
	}
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	sc.flushed.Broadcast()
	sc.mu.Unlock()
	s.dropConn(key.id, key.class, sc)
}

// dropConn discards a dead connection so the next attempt redials.
func (s *Socket) dropConn(to simnet.NodeID, class simnet.Class, sc *sendConn) {
	key := connKey{to, class}
	s.mu.Lock()
	if s.conns[key] == sc {
		delete(s.conns, key)
		s.deadConns++
		s.redialPending[key] = true
		s.journal.Emit(obs.Event{
			At: time.Now().UnixNano(), Kind: "conn.dead",
			Node: string(s.info.ID), Detail: string(to),
		})
	}
	s.mu.Unlock()
	sc.c.Close()
}

// writeFrame writes one framed message in a single syscall. Only the
// per-dial hello path uses it; steady-state sends go through
// sendConn.write, which reuses its buffers.
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
