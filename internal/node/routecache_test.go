package node

import (
	"sync"
	"sync/atomic"
	"testing"

	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/simnet"
)

// fakeResolver is a repointable placement with an epoch counter and a
// resolution call counter, standing in for the region during cache tests.
type fakeResolver struct {
	mu      sync.Mutex
	primary map[string]simnet.NodeID
	epoch   uint64
	calls   int64
	// onEpoch, when set, runs at the start of every Epoch call with the
	// call's ordinal: a test's placement change driven by the node's own
	// lookups instead of by a sleep.
	onEpoch    func(read int64)
	epochReads int64
}

func (r *fakeResolver) Primary(slot string) (simnet.NodeID, bool) {
	atomic.AddInt64(&r.calls, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.primary[slot]
	return id, ok
}

func (r *fakeResolver) Standby(string) (simnet.NodeID, bool) {
	atomic.AddInt64(&r.calls, 1)
	return "", false
}

func (r *fakeResolver) Epoch() uint64 {
	if r.onEpoch != nil {
		r.onEpoch(atomic.AddInt64(&r.epochReads, 1))
	}
	return atomic.LoadUint64(&r.epoch)
}

// repoint moves a slot to a new primary and bumps the epoch, exactly as
// the region does for recovery, promotion and migration.
func (r *fakeResolver) repoint(slot string, to simnet.NodeID) {
	r.mu.Lock()
	r.primary[slot] = to
	r.mu.Unlock()
	atomic.AddUint64(&r.epoch, 1)
}

func (r *fakeResolver) resolverCalls() int64 { return atomic.LoadInt64(&r.calls) }

// TestRouteCacheInvalidatesOnEpochBump streams tuples across a placement
// repoint: deliveries before the bump must land at the old primary,
// deliveries after it at the new one, every sequence exactly once — and
// the cache must actually serve, consulting the resolver only around the
// epoch change rather than once per send.
func TestRouteCacheInvalidatesOnEpochBump(t *testing.T) {
	clk := clock.NewScaled(1e6)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	tx := simnet.NewEndpoint("tx", 4096)
	rxA := simnet.NewEndpoint("rxA", 4096)
	rxB := simnet.NewEndpoint("rxB", 4096)
	w.Join(tx)
	w.Join(rxA)
	w.Join(rxB)
	res := &fakeResolver{primary: map[string]simnet.NodeID{"down": "rxA"}}
	n := edgeNode("up", Config{
		ID:       "tx",
		Scheme:   ft.BaseScheme,
		Clock:    clk,
		WiFi:     w,
		Endpoint: tx,
		Resolver: res,
		QoS:      QoS{MaxBatchMsgs: 1},
	})
	if n.epochRes == nil {
		t.Fatal("node did not adopt the epoch resolver")
	}

	const perPhase = 200
	send := func(seq uint64) {
		n.deliverData(slotOf("down"), 100, testStreamMsg(seq), simnet.ClassData)
	}
	for seq := uint64(1); seq <= perPhase; seq++ {
		send(seq)
	}
	callsBeforeBump := res.resolverCalls()
	if callsBeforeBump > 4 {
		t.Fatalf("resolver consulted %d times for %d sends: cache not serving", callsBeforeBump, perPhase)
	}

	// Failover/migration mid-stream: the region repoints the slot and
	// bumps the epoch; in-flight senders must re-resolve.
	res.repoint("down", "rxB")
	for seq := uint64(perPhase + 1); seq <= 2*perPhase; seq++ {
		send(seq)
	}
	if calls := res.resolverCalls(); calls > callsBeforeBump+4 {
		t.Fatalf("resolver consulted %d times after the bump: cache not re-serving", calls-callsBeforeBump)
	}

	drain := func(ep *simnet.Endpoint) []uint64 {
		var seqs []uint64
		for {
			select {
			case m := <-ep.Inbox():
				seqs = append(seqs, m.Payload.(streamMsg).EdgeSeq)
			default:
				return seqs
			}
		}
	}
	gotA, gotB := drain(rxA), drain(rxB)
	if len(gotA) != perPhase || len(gotB) != perPhase {
		t.Fatalf("rxA got %d, rxB got %d, want %d each", len(gotA), len(gotB), perPhase)
	}
	seen := make(map[uint64]bool)
	for _, s := range gotA {
		if s > perPhase {
			t.Fatalf("seq %d sent after the repoint landed at the old primary", s)
		}
		if seen[s] {
			t.Fatalf("seq %d delivered twice", s)
		}
		seen[s] = true
	}
	for _, s := range gotB {
		if s <= perPhase {
			t.Fatalf("seq %d sent before the repoint landed at the new primary", s)
		}
		if seen[s] {
			t.Fatalf("seq %d delivered twice", s)
		}
		seen[s] = true
	}
	if len(seen) != 2*perPhase {
		t.Fatalf("delivered %d distinct sequences, want %d", len(seen), 2*perPhase)
	}
}

// TestRouteCacheRetriesAcrossRepoint covers the failover window itself: a
// delivery in flight while the destination is dead must keep retrying and
// land exactly once at the new primary installed mid-retry — the cached
// route must not pin the dead phone past the epoch bump.
func TestRouteCacheRetriesAcrossRepoint(t *testing.T) {
	// The retry horizon (30 attempts, 200 simulated ms apart) is ~120 ms of
	// wall time at this speedup; the test needs two retries of it.
	clk := clock.NewScaled(50)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 1e12})
	tx := simnet.NewEndpoint("tx", 64)
	rxA := simnet.NewEndpoint("rxA", 64)
	rxB := simnet.NewEndpoint("rxB", 64)
	w.Join(tx)
	w.Join(rxA)
	w.Join(rxB)
	res := &fakeResolver{primary: map[string]simnet.NodeID{"down": "rxA"}}
	n := edgeNode("up", Config{
		ID:       "tx",
		Scheme:   ft.BaseScheme,
		Clock:    clk,
		WiFi:     w,
		Endpoint: tx,
		Resolver: res,
		QoS:      QoS{MaxBatchMsgs: 1},
	})

	// Warm the cache on the doomed primary, then kill it.
	if err := w.Unicast("tx", "rxA", simnet.ClassData, 10, nil); err != nil {
		t.Fatal(err)
	}
	n.deliverData(slotOf("down"), 100, testStreamMsg(1), simnet.ClassData)
	<-rxA.Inbox() // the warm-up unicast
	<-rxA.Inbox() // seq 1
	rxA.Seal()
	w.SetPresent("rxA", false)

	// Every attempt reads the epoch once and, the epoch unchanged, takes
	// the dead primary from the cache: two attempts fail, and the placement
	// moves under the third's lookup.
	res.onEpoch = func(read int64) {
		if read == 3 {
			res.repoint("down", "rxB")
		}
	}
	before := res.resolverCalls()
	n.deliverData(slotOf("down"), 100, testStreamMsg(2), simnet.ClassData)
	if reads := atomic.LoadInt64(&res.epochReads); reads != 3 {
		t.Fatalf("delivery took %d attempts, want 3 (two against the dead primary)", reads)
	}
	if calls := res.resolverCalls() - before; calls != 1 {
		t.Fatalf("resolver consulted %d times across the repoint, want 1", calls)
	}
	select {
	case m := <-rxB.Inbox():
		if m.Payload.(streamMsg).EdgeSeq != 2 {
			t.Fatalf("new primary received seq %d, want 2", m.Payload.(streamMsg).EdgeSeq)
		}
	default:
		t.Fatal("in-flight delivery never landed at the new primary")
	}
	select {
	case <-rxB.Inbox():
		t.Fatal("duplicate delivery at the new primary")
	default:
	}
}
