package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
)

// collector gathers received frames thread-safely.
type collector struct {
	mu     sync.Mutex
	frames []received
	ch     chan received
}

type received struct {
	from  simnet.NodeID
	class simnet.Class
	frame []byte
}

func newCollector() *collector {
	return &collector{ch: make(chan received, 1024)}
}

func (c *collector) handler(from simnet.NodeID, class simnet.Class, frame []byte) {
	r := received{from, class, frame}
	c.mu.Lock()
	c.frames = append(c.frames, r)
	c.mu.Unlock()
	c.ch <- r
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []received {
	t.Helper()
	deadline := time.After(timeout)
	for {
		c.mu.Lock()
		have := len(c.frames)
		c.mu.Unlock()
		if have >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			return append([]received(nil), c.frames...)
		}
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("received %d of %d frames within %v", have, n, timeout)
		}
	}
}

func newSock(t *testing.T, id simnet.NodeID) (*Socket, *collector) {
	t.Helper()
	s, err := NewSocket(id, "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := newCollector()
	s.Receive(c.handler)
	return s, c
}

func TestSocketTellOrdered(t *testing.T) {
	a, _ := newSock(t, "a")
	b, bc := newSock(t, "b")
	a.AddPeer("b", b.Info().Addr)

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Tell("b", simnet.ClassData, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := bc.wait(t, n, 5*time.Second)
	for i, r := range got {
		if r.from != "a" || r.class != simnet.ClassData {
			t.Fatalf("frame %d from %s class %s", i, r.from, r.class)
		}
		if want := fmt.Sprintf("m%03d", i); string(r.frame) != want {
			t.Fatalf("frame %d = %q, want %q (order broken)", i, r.frame, want)
		}
	}
}

// TestSocketHelloBackLearning: after a dials b, b has learned a's address
// from the hello handshake and can Tell back without explicit AddPeer.
func TestSocketHelloBackLearning(t *testing.T) {
	a, ac := newSock(t, "a")
	b, bc := newSock(t, "b")
	a.AddPeer("b", b.Info().Addr)
	if err := a.Tell("b", simnet.ClassControl, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	bc.wait(t, 1, 5*time.Second)
	if _, ok := b.PeerAddr("a"); !ok {
		t.Fatal("b did not learn a's address from the handshake")
	}
	if err := b.Tell("a", simnet.ClassControl, []byte("yo")); err != nil {
		t.Fatalf("reverse tell: %v", err)
	}
	got := ac.wait(t, 1, 5*time.Second)
	if got[0].from != "b" || string(got[0].frame) != "yo" {
		t.Fatalf("reverse frame: %+v", got[0])
	}
}

// TestSocketPerClassConns: distinct classes get distinct connections, and
// traffic still attributes correctly.
func TestSocketPerClassConns(t *testing.T) {
	a, _ := newSock(t, "a")
	b, bc := newSock(t, "b")
	a.AddPeer("b", b.Info().Addr)
	classes := []simnet.Class{simnet.ClassData, simnet.ClassCheckpoint, simnet.ClassControl}
	for _, cl := range classes {
		if err := a.Tell("b", cl, []byte{byte(cl)}); err != nil {
			t.Fatal(err)
		}
	}
	got := bc.wait(t, len(classes), 5*time.Second)
	seen := map[simnet.Class]bool{}
	for _, r := range got {
		seen[r.class] = true
	}
	for _, cl := range classes {
		if !seen[cl] {
			t.Fatalf("class %s never arrived", cl)
		}
	}
	a.mu.Lock()
	nconns := len(a.conns)
	a.mu.Unlock()
	if nconns != len(classes) {
		t.Fatalf("%d outbound conns, want one per class = %d", nconns, len(classes))
	}
}

func TestSocketUnknownPeer(t *testing.T) {
	a, _ := newSock(t, "a")
	if err := a.Tell("ghost", simnet.ClassData, []byte("x")); !errors.Is(err, errUnknownPeer) {
		t.Fatalf("tell to unknown peer: %v", err)
	}
}

// TestSocketRedialAfterPeerRestart: an established connection dies with
// its peer; Tell retries, redials the restarted listener and delivers.
func TestSocketRedialAfterPeerRestart(t *testing.T) {
	a, _ := newSock(t, "a")
	j := obs.NewJournal(0)
	a.SetJournal(j)
	b1, b1c := newSock(t, "b")
	a.AddPeer("b", b1.Info().Addr)
	if err := a.Tell("b", simnet.ClassData, []byte("one")); err != nil {
		t.Fatal(err)
	}
	b1c.wait(t, 1, 5*time.Second)
	addr := b1.Info().Addr
	b1.Close()
	// Connection death is detected asynchronously: the per-conn monitor
	// observes the peer's FIN and drops the conn. Wait for that before
	// sending again — a send racing the detection window lands in the
	// kernel buffer of a dying socket, which no TCP user can distinguish
	// from delivery without application-level acks.
	waitCond(t, func() bool { return a.Stats().DeadConns >= 1 })

	// Restart a listener on the same address under the same identity.
	var b2 *Socket
	var err error
	for i := 0; i < 50; i++ { // the port lingers briefly on some kernels
		b2, err = NewSocket("b", addr, "")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("restart listener: %v", err)
	}
	t.Cleanup(func() { b2.Close() })
	b2c := newCollector()
	b2.Receive(b2c.handler)

	if err := a.Tell("b", simnet.ClassData, []byte("two")); err != nil {
		t.Fatalf("tell after restart: %v", err)
	}
	got := b2c.wait(t, 1, 5*time.Second)
	if string(got[0].frame) != "two" {
		t.Fatalf("frame after restart: %q", got[0].frame)
	}
	st := a.Stats()
	if st.DeadConns < 1 {
		t.Fatalf("DeadConns = %d, want >= 1", st.DeadConns)
	}
	if st.Redials < 1 {
		t.Fatalf("Redials = %d, want >= 1", st.Redials)
	}
	if bst := b2.Stats(); bst.DeadConns != 0 || bst.Redials != 0 {
		t.Fatalf("receiver stats should be zero, got %+v", bst)
	}
	var dead, redial bool
	for _, ev := range j.Events() {
		switch ev.Kind {
		case "conn.dead":
			dead = true
		case "conn.redial":
			redial = true
		}
	}
	if !dead || !redial {
		t.Fatalf("journal missing conn.dead/conn.redial: %+v", j.Events())
	}
}

func TestSocketLargeFrame(t *testing.T) {
	a, _ := newSock(t, "a")
	b, bc := newSock(t, "b")
	a.AddPeer("b", b.Info().Addr)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Tell("b", simnet.ClassCheckpoint, big); err != nil {
		t.Fatal(err)
	}
	got := bc.wait(t, 1, 10*time.Second)
	if len(got[0].frame) != len(big) {
		t.Fatalf("got %d bytes, want %d", len(got[0].frame), len(big))
	}
	for i, v := range got[0].frame {
		if v != byte(i) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestSocketTellAfterClose(t *testing.T) {
	a, _ := newSock(t, "a")
	b, _ := newSock(t, "b")
	a.AddPeer("b", b.Info().Addr)
	a.Close()
	if err := a.Tell("b", simnet.ClassData, []byte("x")); !errors.Is(err, errClosed) {
		t.Fatalf("tell after close: %v", err)
	}
}

func TestSocketWaitPeers(t *testing.T) {
	a, _ := newSock(t, "a")
	if err := a.WaitPeers(1, 50*time.Millisecond); err == nil {
		t.Fatal("WaitPeers succeeded with no peers")
	}
	b, _ := newSock(t, "b")
	go func() {
		time.Sleep(20 * time.Millisecond)
		b.AddPeer("a", a.Info().Addr)
		b.Tell("a", simnet.ClassControl, []byte("join"))
	}()
	if err := a.WaitPeers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.PeerAddr("b"); !ok {
		t.Fatal("joined peer not in address book")
	}
}
