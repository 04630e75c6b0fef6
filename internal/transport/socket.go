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
//
// UDP datagrams are self-identifying instead (no handshake): the class
// byte, a length-prefixed sender ID, then the frame.

const (
	// maxFrameBytes bounds one framed message (64 MB): large enough for
	// any checkpoint blob the simulation produces, small enough that a
	// corrupted length prefix cannot drive allocation to OOM.
	maxFrameBytes = 64 << 20
	// maxDatagramBytes bounds one UDP cast.
	maxDatagramBytes = 64 << 10

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
// retry and a hello handshake; best-effort Cast over UDP on the same port.
type Socket struct {
	info Info
	ln   net.Listener
	udp  *net.UDPConn

	mu      sync.Mutex
	peers   map[simnet.NodeID]peer
	conns   map[connKey]*sendConn
	inbound map[net.Conn]struct{}
	closed  bool
	// redialPending marks (peer, class) keys whose connection died, so the
	// next successful dial counts as a redial rather than a first dial.
	redialPending map[connKey]bool
	deadConns     int64
	redials       int64
	journal       *obs.Journal

	// Per-peer datagram budget (token bucket, bytes). Zero rate = no cap.
	castRate    float64
	castBurst   float64
	castBuckets map[simnet.NodeID]*castBucket

	castMu  sync.Mutex // serialises datagram framing into castBuf
	castBuf []byte

	castFallbacks  int64
	castSuppressed int64
	sentBytes      [simnet.ClassPreserve + 1]int64

	h  atomic.Value // Handler
	wg sync.WaitGroup
}

// peer is a known peer's dialable address and, once a Cast has needed it,
// that address resolved for UDP.
type peer struct {
	addr string
	udp  *net.UDPAddr
}

// castBucket is one peer's datagram token bucket.
type castBucket struct {
	tokens float64
	last   time.Time
}

// Stats is a point-in-time snapshot of the transport's connection health.
type Stats struct {
	// DeadConns counts connections discarded after a write failure.
	DeadConns int64
	// Redials counts successful dials that replaced a dead connection.
	Redials int64
	// CastFallbacks counts oversized casts delivered reliably via Tell.
	CastFallbacks int64
	// CastSuppressed counts casts dropped by the per-peer send budget.
	CastSuppressed int64
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
func (s *Socket) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		DeadConns: s.deadConns, Redials: s.redials,
		CastFallbacks:  atomic.LoadInt64(&s.castFallbacks),
		CastSuppressed: atomic.LoadInt64(&s.castSuppressed),
	}
}

// SetCastBudget caps the datagram bytes this node may send to any one
// peer: a token bucket refilling at bytesPerSec with the given burst.
// Casts over budget are silently suppressed (Cast is best-effort; the
// CastSuppressed counter records them). A zero rate removes the cap.
func (s *Socket) SetCastBudget(bytesPerSec, burst int) {
	s.mu.Lock()
	s.castRate = float64(bytesPerSec)
	s.castBurst = float64(burst)
	s.castBuckets = make(map[simnet.NodeID]*castBucket)
	s.mu.Unlock()
}

// SentBytes reports the payload bytes sent on one traffic class, across
// Tell and Cast. A cast that fell back to Tell counts once; suppressed
// casts never reached the wire and do not count.
func (s *Socket) SentBytes(class simnet.Class) int64 {
	return atomic.LoadInt64(&s.sentBytes[class])
}

// castAllowLocked charges n bytes against the peer's token bucket.
func (s *Socket) castAllowLocked(to simnet.NodeID, n int) bool {
	if s.castRate <= 0 {
		return true
	}
	now := time.Now()
	b := s.castBuckets[to]
	if b == nil {
		b = &castBucket{tokens: s.castBurst, last: now}
		s.castBuckets[to] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.castRate
	if b.tokens > s.castBurst {
		b.tokens = s.castBurst
	}
	b.last = now
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// NewSocket listens on listen ("host:port", port 0 for ephemeral) for both
// TCP and UDP. advertise is the address peers dial to reach this node;
// empty means the listener's own address (right for loopback and
// single-host tests; multi-host deployments pass an externally routable
// address).
func NewSocket(id simnet.NodeID, listen, advertise string) (*Socket, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listen, err)
	}
	udp, err := net.ListenUDP("udp", &net.UDPAddr{
		IP:   ln.Addr().(*net.TCPAddr).IP,
		Port: ln.Addr().(*net.TCPAddr).Port,
	})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("transport: listen udp: %w", err)
	}
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	s := &Socket{
		info:          Info{ID: id, Addr: advertise},
		ln:            ln,
		udp:           udp,
		peers:         make(map[simnet.NodeID]peer),
		conns:         make(map[connKey]*sendConn),
		inbound:       make(map[net.Conn]struct{}),
		redialPending: make(map[connKey]bool),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.udpLoop()
	return s, nil
}

// Info reports the node's identity and advertised address.
func (s *Socket) Info() Info { return s.info }

// AddPeer records a peer's dialable address. Accepted connections add
// their dialer automatically via the hello handshake. A changed address
// drops the resolved UDP address with it.
func (s *Socket) AddPeer(id simnet.NodeID, addr string) {
	s.mu.Lock()
	if p, ok := s.peers[id]; !ok || p.addr != addr {
		s.peers[id] = peer{addr: addr}
	}
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
	p, ok := s.peers[id]
	return p.addr, ok
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
			if err == ErrUnknownPeer || err == ErrClosed {
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

// Cast sends the frame as one best-effort UDP datagram; missing peers are
// errors, network loss is not. A frame too large for one datagram falls
// back to Tell transparently — the caller asked for best effort and gets
// reliable delivery instead, at stream cost (journalled as cast_fallback).
// When a per-peer budget is set, casts over budget are dropped, which is
// within Cast's loss contract.
func (s *Socket) Cast(to simnet.NodeID, class simnet.Class, frame []byte) error {
	id := string(s.info.ID)
	n := 1 + 2 + len(id) + len(frame)
	s.mu.Lock()
	p, ok := s.peers[to]
	closed := s.closed
	allowed := true
	if !closed && ok && n <= maxDatagramBytes {
		allowed = s.castAllowLocked(to, n)
	}
	journal := s.journal
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	if n > maxDatagramBytes {
		atomic.AddInt64(&s.castFallbacks, 1)
		journal.Emit(obs.Event{
			At: time.Now().UnixNano(), Kind: "cast_fallback",
			Node: string(s.info.ID), Detail: string(to),
		})
		return s.Tell(to, class, frame)
	}
	if !allowed {
		atomic.AddInt64(&s.castSuppressed, 1)
		return nil
	}
	if p.udp == nil { // first cast to this address: resolve and remember
		ua, err := net.ResolveUDPAddr("udp", p.addr)
		if err != nil {
			return fmt.Errorf("transport: cast %s: %w", to, err)
		}
		p.udp = ua
		s.mu.Lock()
		if s.peers[to].addr == p.addr {
			s.peers[to] = p
		}
		s.mu.Unlock()
	}
	atomic.AddInt64(&s.sentBytes[class], int64(len(frame)))
	s.castMu.Lock()
	defer s.castMu.Unlock()
	buf := append(s.castBuf[:0], byte(class), byte(len(id)>>8), byte(len(id)))
	buf = append(buf, id...)
	buf = append(buf, frame...)
	s.castBuf = buf
	_, err := s.udp.WriteToUDP(buf, p.udp)
	return err
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
	s.udp.Close()
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
		return nil, ErrClosed
	}
	if sc, ok := s.conns[key]; ok {
		s.mu.Unlock()
		return sc, nil
	}
	p, ok := s.peers[to]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownPeer
	}

	c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
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
		return nil, ErrClosed
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

func (s *Socket) udpLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxDatagramBytes)
	for {
		n, _, err := s.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < 3 {
			continue
		}
		class := simnet.Class(buf[0])
		idLen := int(buf[1])<<8 | int(buf[2])
		if 3+idLen > n {
			continue
		}
		from := simnet.NodeID(buf[3 : 3+idLen])
		frame := append([]byte(nil), buf[3+idLen:n]...)
		if h := s.handler(); h != nil {
			h(from, class, frame)
		}
	}
}
