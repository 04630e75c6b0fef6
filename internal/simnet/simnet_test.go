package simnet

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mobistreams/internal/clock"
)

func testClock() clock.Clock { return clock.NewScaled(20000) }

func newTestWiFi(t *testing.T, cfg WiFiConfig) (*WiFi, map[NodeID]*Endpoint) {
	t.Helper()
	w := NewWiFi(testClock(), cfg)
	eps := make(map[NodeID]*Endpoint)
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		ep := NewEndpoint(id, 1<<14)
		w.Join(ep)
		eps[id] = ep
	}
	return w, eps
}

func TestWiFiUnicastDelivers(t *testing.T) {
	w, eps := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6})
	if err := w.Unicast("a", "b", ClassData, 1000, "hello"); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-eps["b"].Inbox():
		if m.From != "a" || m.Payload != "hello" || m.Size != 1000 {
			t.Fatalf("bad message: %+v", m)
		}
	default:
		t.Fatal("message not delivered")
	}
}

func TestWiFiUnicastUnreachable(t *testing.T) {
	w, eps := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6})
	if err := w.Unicast("a", "zz", ClassData, 10, nil); !errors.Is(err, errUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	w.SetPresent("b", false)
	if err := w.Unicast("a", "b", ClassData, 10, nil); !errors.Is(err, errUnreachable) {
		t.Fatalf("departed member should be unreachable, got %v", err)
	}
	eps["c"].Seal()
	if err := w.Unicast("a", "c", ClassData, 10, nil); !errors.Is(err, errUnreachable) {
		t.Fatalf("sealed endpoint should be unreachable, got %v", err)
	}
}

func TestWiFiAirtimeSerialises(t *testing.T) {
	clk := clock.NewScaled(300)
	w := NewWiFi(clk, WiFiConfig{BitsPerSecond: 1e6}) // 125 KB/s
	a, b := NewEndpoint("a", 16), NewEndpoint("b", 16)
	w.Join(a)
	w.Join(b)
	start := clk.Now()
	// Two back-to-back 125 KB transfers should take ~2 simulated seconds.
	if err := w.Unicast("a", "b", ClassData, 125000, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Unicast("a", "b", ClassData, 125000, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - start
	if elapsed < 1800*time.Millisecond || elapsed > 8*time.Second {
		t.Fatalf("two 1s transfers took %v of simulated time", elapsed)
	}
}

func TestWiFiBroadcastReachesAllPresent(t *testing.T) {
	w, eps := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6})
	w.SetPresent("d", false)
	n := w.Broadcast("a", ClassCheckpoint, 1024, "blk")
	if n != 2 {
		t.Fatalf("broadcast receivers = %d, want 2 (b and c)", n)
	}
	for _, id := range []NodeID{"b", "c"} {
		select {
		case m := <-eps[id].Inbox():
			if m.Payload != "blk" {
				t.Fatalf("bad payload on %s: %v", id, m.Payload)
			}
		default:
			t.Fatalf("no datagram on %s", id)
		}
	}
	select {
	case <-eps["d"].Inbox():
		t.Fatal("absent member received broadcast")
	default:
	}
}

func TestWiFiBroadcastLoss(t *testing.T) {
	w, _ := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6, LossProb: 0.5, Seed: 42})
	grams := make([]Datagram, 400)
	for i := range grams {
		grams[i] = Datagram{Size: 100, Payload: i}
	}
	total := w.BroadcastBatch("a", ClassCheckpoint, grams)
	// 400 datagrams x 3 receivers x 50% ~= 600 expected deliveries.
	if total < 450 || total > 750 {
		t.Fatalf("deliveries = %d, want ~600 under 50%% loss", total)
	}
}

func TestWiFiBroadcastChargesAirtimeOnce(t *testing.T) {
	// Speedup 200 keeps the 1 s broadcast at 5 ms of wall time; at 2000
	// the same airtime is a 0.5 ms sleep, and a couple of milliseconds
	// of timer overshoot reads back as several simulated seconds,
	// tripping the airtime bound without any airtime being re-charged.
	clk := clock.NewScaled(200)
	w := NewWiFi(clk, WiFiConfig{BitsPerSecond: 1e6})
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		w.Join(NewEndpoint(id, 1<<12))
	}
	start := clk.Now()
	w.Broadcast("a", ClassCheckpoint, 125000, nil) // 1 simulated second
	elapsed := clk.Now() - start
	// Three receivers, but airtime is one second, not three.
	if elapsed > 4*time.Second {
		t.Fatalf("broadcast took %v simulated, want ~1s (airtime charged once)", elapsed)
	}
	if got := w.Counters.Bytes(ClassCheckpoint); got != 125000 {
		t.Fatalf("checkpoint bytes = %d, want 125000", got)
	}
}

func TestWiFiRequestRespond(t *testing.T) {
	w, eps := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6})
	go func() {
		m := <-eps["b"].Inbox()
		w.Respond(m, "b", ClassBitmap, 128, "bitmap")
	}()
	reply := make(chan Message, 1)
	if err := w.Request("a", "b", ClassBitmap, 64, "query", reply); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-reply:
		if m.Payload != "bitmap" || m.From != "b" {
			t.Fatalf("bad reply: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply")
	}
	if w.Counters.Bytes(ClassBitmap) != 64+128 {
		t.Fatalf("bitmap bytes = %d, want 192", w.Counters.Bytes(ClassBitmap))
	}
}

// The unreachable path returns the sentinel itself: a sender probing a
// failed or departed peer allocates nothing.
func TestUnreachableAllocatesNothing(t *testing.T) {
	w, _ := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6})
	w.SetPresent("b", false)
	cell := NewCellular(testClock(), CellularConfig{})
	cell.Attach(NewEndpoint("a", 4))
	for name, send := range map[string]func() error{
		"WiFi.Unicast":  func() error { return w.Unicast("a", "b", ClassData, 10, nil) },
		"Cellular.Send": func() error { return cell.Send("a", "nope", ClassControl, 10, nil) },
	} {
		if err := send(); err != errUnreachable {
			t.Fatalf("%s: got %v, want ErrUnreachable itself", name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { send() }); allocs != 0 {
			t.Fatalf("%s to an unreachable peer allocates %.1f objects, want 0", name, allocs)
		}
	}
}

func TestWiFiSealedReceiverDuringTransfer(t *testing.T) {
	w, eps := newTestWiFi(t, WiFiConfig{BitsPerSecond: 8e6})
	eps["b"].Seal()
	if err := w.Unicast("a", "b", ClassData, 100, nil); !errors.Is(err, errUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

func TestCountersAccumulateByClass(t *testing.T) {
	var c counters
	c.add(ClassData, 100)
	c.add(ClassData, 50)
	c.add(ClassCheckpoint, 9)
	if c.Bytes(ClassData) != 150 || c.Messages(ClassData) != 2 {
		t.Fatalf("data = %d bytes / %d msgs", c.Bytes(ClassData), c.Messages(ClassData))
	}
	if c.TotalBytes() != 159 {
		t.Fatalf("total = %d, want 159", c.TotalBytes())
	}
	snap := c.Snapshot()
	if snap["checkpoint"] != 9 {
		t.Fatalf("snapshot checkpoint = %d", snap["checkpoint"])
	}
	c.Reset()
	if c.TotalBytes() != 0 {
		t.Fatal("reset did not zero counters")
	}
}

func TestCellularSendAndRates(t *testing.T) {
	clk := clock.NewManual()
	cell := NewCellular(clk, CellularConfig{UpBitsPerSecond: 0.08e6, DownBitsPerSecond: 0.8e6})
	a, b := NewEndpoint("a", 64), NewEndpoint("b", 64)
	cell.Attach(a)
	cell.Attach(b)
	// 10 kB is 80 kbit: 1 s on the 0.08 Mbps uplink, then 0.1 s on the
	// 0.8 Mbps downlink, which cannot start before the uplink clears.
	const airtime = 1100 * time.Millisecond
	sent := make(chan error, 1)
	go func() { sent <- cell.Send("a", "b", ClassData, 10000, "x") }()
	for deadline := time.Now().Add(10 * time.Second); clk.PendingTimers() == 0; time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("Send never waited on the clock")
		}
	}
	clk.Advance(airtime - 1)
	if clk.PendingTimers() != 1 {
		t.Fatalf("Send stopped waiting before the modelled %v", airtime)
	}
	clk.Advance(1)
	if clk.PendingTimers() != 0 {
		t.Fatalf("Send still waiting after the modelled %v", airtime)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Inbox():
		if m.Payload != "x" {
			t.Fatalf("bad payload %v", m.Payload)
		}
	default:
		t.Fatal("not delivered")
	}
}

func TestCellularUnreachable(t *testing.T) {
	cell := NewCellular(testClock(), CellularConfig{})
	a := NewEndpoint("a", 4)
	cell.Attach(a)
	if err := cell.Send("a", "nope", ClassControl, 10, nil); !errors.Is(err, errUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	b := NewEndpoint("b", 4)
	cell.Attach(b)
	b.Seal()
	if err := cell.Send("a", "b", ClassControl, 10, nil); !errors.Is(err, errUnreachable) {
		t.Fatalf("sealed: want ErrUnreachable, got %v", err)
	}
	cell.Detach("b")
	if cell.Attached("b") {
		t.Fatal("detach did not remove device")
	}
}

func TestCellularRequestRespond(t *testing.T) {
	cell := NewCellular(testClock(), CellularConfig{UpBitsPerSecond: 8e6, DownBitsPerSecond: 8e6})
	a, b := NewEndpoint("a", 8), NewEndpoint("b", 8)
	cell.Attach(a)
	cell.Attach(b)
	go func() {
		m := <-b.Inbox()
		cell.Respond(m, "b", ClassControl, 32, "pong")
	}()
	reply := make(chan Message, 1)
	if err := cell.Request("a", "b", ClassControl, 16, "ping", reply); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-reply:
		if m.Payload != "pong" {
			t.Fatalf("bad reply %v", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no reply")
	}
}

func TestCellularSharedUplinkContention(t *testing.T) {
	clk := clock.NewScaled(2000)
	cell := NewCellular(clk, CellularConfig{UpBitsPerSecond: 0.08e6, DownBitsPerSecond: 8e6})
	a, b := NewEndpoint("a", 64), NewEndpoint("b", 64)
	cell.Attach(a)
	cell.Attach(b)
	done := make(chan time.Duration, 2)
	start := clk.Now()
	for i := 0; i < 2; i++ {
		go func() {
			cell.Send("a", "b", ClassData, 10000, nil)
			done <- clk.Now() - start
		}()
	}
	var last time.Duration
	for i := 0; i < 2; i++ {
		select {
		case d := <-done:
			if d > last {
				last = d
			}
		case <-time.After(5 * time.Second):
			t.Fatal("transfers did not complete")
		}
	}
	// Two 1-second transfers share one uplink: the last must finish
	// around 2 simulated seconds, not 1.
	if last < 1600*time.Millisecond {
		t.Fatalf("shared uplink finished too fast: %v", last)
	}
}

func TestEndpointSealUnseal(t *testing.T) {
	ep := NewEndpoint("x", 2)
	if ep.sealed.Load() {
		t.Fatal("new endpoint sealed")
	}
	ep.Seal()
	if !ep.sealed.Load() {
		t.Fatal("seal did not stick")
	}
	if ep.offer(Message{}, 1) {
		t.Fatal("delivered to sealed endpoint")
	}
	ep.Unseal()
	if !ep.offer(Message{}, 1) {
		t.Fatal("unsealed endpoint rejected delivery")
	}
}

func TestWiFiMembersAndRemove(t *testing.T) {
	w, _ := newTestWiFi(t, WiFiConfig{})
	if len(w.Members()) != 4 {
		t.Fatalf("members = %d, want 4", len(w.Members()))
	}
	w.Remove("d")
	if len(w.Members()) != 3 {
		t.Fatalf("members = %d after remove, want 3", len(w.Members()))
	}
	if w.present("d") {
		t.Fatal("removed member still present")
	}
}

func TestClassString(t *testing.T) {
	if ClassData.String() != "data" || ClassTransfer.String() != "transfer" {
		t.Fatal("class names wrong")
	}
	if Class(99).String() != "class(99)" {
		t.Fatal("unknown class name wrong")
	}
}

// TestUnicastChunksInterleave checks the airtime fairness that keeps
// checkpoint traffic flowing between data batches: a long batched data
// flow reserves the medium one chunk at a time, so a concurrent small
// transfer (a checkpoint block burst) slots in between chunks instead of
// waiting for the whole flow to drain.
func TestUnicastChunksInterleave(t *testing.T) {
	clk := clock.NewScaled(300)
	w := NewWiFi(clk, WiFiConfig{BitsPerSecond: 1e6}) // 125 KB/s, 64 KB chunks
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		w.Join(NewEndpoint(id, 64))
	}
	// 1 MB data flow = ~8.4 s of airtime in 64 KB chunks.
	flowDone := make(chan time.Duration, 1)
	go func() {
		if err := w.Unicast("a", "b", ClassData, 1<<20, nil); err != nil {
			flowDone <- -1
			return
		}
		flowDone <- clk.Now()
	}()
	time.Sleep(3 * time.Millisecond) // ~0.9 s simulated: flow is mid-air
	start := clk.Now()
	if err := w.Unicast("c", "d", ClassCheckpoint, 64<<10, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - start
	if done := <-flowDone; done < 0 {
		t.Fatal("data flow failed")
	}
	// The checkpoint transfer needs ~0.5 s of airtime; waiting behind the
	// entire data flow would take over 7 s. Allow generous scheduler slack.
	if elapsed > 4*time.Second {
		t.Fatalf("checkpoint transfer waited %v behind the data flow; chunks did not interleave", elapsed)
	}
}

// TestWiFiFrameOverheadChargesAirtime checks that the per-frame cost is
// charged per transmission (what batching amortises) without inflating the
// payload byte accounting.
func TestWiFiFrameOverheadChargesAirtime(t *testing.T) {
	clk := clock.NewScaled(300)
	w := NewWiFi(clk, WiFiConfig{BitsPerSecond: 1e6, FrameOverhead: 125000})
	w.Join(NewEndpoint("a", 16))
	w.Join(NewEndpoint("b", 16))
	start := clk.Now()
	if err := w.Unicast("a", "b", ClassData, 125000, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - start
	// 125 KB payload + 125 KB frame overhead at 125 KB/s = ~2 s airtime
	// (upper bound loose: scaled-clock sleeps overshoot under load).
	if elapsed < 1800*time.Millisecond || elapsed > 10*time.Second {
		t.Fatalf("airtime with frame overhead = %v, want ~2 s", elapsed)
	}
	if got := w.Counters.Bytes(ClassData); got != 125000 {
		t.Fatalf("counted %d bytes, want payload-only 125000", got)
	}
}

// TestEndpointDropCounter checks that non-blocking (UDP-semantics)
// deliveries lost to a full inbox are counted rather than vanishing, while
// blocking deliveries and sealed-endpoint rejections are not.
func TestEndpointDropCounter(t *testing.T) {
	ep := NewEndpoint("a", 1)
	if !ep.offer(Message{Class: ClassData}, 1) {
		t.Fatal("first delivery into empty inbox failed")
	}
	for i := 0; i < 3; i++ {
		if ep.offer(Message{Class: ClassData}, 1) {
			t.Fatal("delivery into full inbox succeeded")
		}
	}
	if got := ep.Drops(); got != 3 {
		t.Fatalf("drops = %d, want 3", got)
	}
	// Sealed rejections are failures, not overflow: not counted.
	ep.Seal()
	ep.offer(Message{Class: ClassData}, 1)
	if got := ep.Drops(); got != 3 {
		t.Fatalf("drops after sealed rejection = %d, want 3", got)
	}
}

// lossyRegion joins a sender and n receivers to a seeded lossy medium. With
// spread, every member sits in its own membership stripe, which makes the
// broadcast's target order (stripe order) deterministic; receivers are
// returned in that order.
func lossyRegion(t *testing.T, n int, spread bool, seed int64) (*WiFi, NodeID, []*Endpoint) {
	t.Helper()
	w := NewWiFi(testClock(), WiFiConfig{BitsPerSecond: 1e9, LossProb: 0.3, Seed: seed})
	byStripe := map[*memberStripe]*Endpoint{}
	var eps []*Endpoint
	for i := 0; len(eps) < n+1; i++ {
		id := NodeID("m" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		if spread && byStripe[w.stripe(id)] != nil {
			continue
		}
		ep := NewEndpoint(id, 1<<12)
		byStripe[w.stripe(id)] = ep
		eps = append(eps, ep)
		w.Join(ep)
	}
	from := eps[0].ID
	if !spread {
		return w, from, eps[1:]
	}
	var ordered []*Endpoint
	for i := range w.stripes {
		if ep := byStripe[&w.stripes[i]]; ep != nil && ep.ID != from {
			ordered = append(ordered, ep)
		}
	}
	return w, from, ordered
}

// A broadcast draws one loss sample per datagram per target, datagram by
// datagram in target order, and delivers in that order too: replaying the
// seeded generator predicts exactly which receiver gets which datagram,
// through Broadcast and BroadcastBatch alike, and the counters charge each
// datagram's payload once. The batch is one reservation, so each receiver
// reads it from one message.
func TestWiFiBroadcastLossSequencePinned(t *testing.T) {
	const seed, receivers, batch, singles = 99, 8, 40, 20
	w, from, eps := lossyRegion(t, receivers, true, seed)
	grams := make([]Datagram, batch)
	for i := range grams {
		grams[i] = Datagram{Size: 10 + i, Payload: i}
	}
	batchDelivered := w.BroadcastBatch(from, ClassPreserve, grams)
	counts := make([]int, batch, batch+singles)
	for i := batch; i < batch+singles; i++ {
		counts = append(counts, w.Broadcast(from, ClassPreserve, 10+i, i))
	}

	rng := rand.New(rand.NewSource(seed))
	want := make([][]int, receivers)
	wantCounts := make([]int, batch+singles)
	bytes, wantBatch := 0, 0
	for g := 0; g < batch+singles; g++ {
		bytes += 10 + g
		for r := range want {
			if rng.Float64() >= 0.3 {
				want[r] = append(want[r], g)
				wantCounts[g]++
			}
		}
		if g < batch {
			wantBatch += wantCounts[g]
		}
	}
	if batchDelivered != wantBatch {
		t.Fatalf("BroadcastBatch delivered %d datagrams, want %d", batchDelivered, wantBatch)
	}
	for r, ep := range eps {
		var got []int
		for msgs := 0; len(ep.Inbox()) > 0; msgs++ {
			m := <-ep.Inbox()
			size := 0
			for _, d := range Datagrams(nil, m) {
				g := d.Payload.(int)
				if d.Size != 10+g || (g < batch) != (msgs == 0) {
					t.Fatalf("receiver %s got datagram %+v in message %d", ep.ID, d, msgs)
				}
				if g < batch {
					counts[g]++
				}
				size += d.Size
				got = append(got, g)
			}
			if m.From != from || m.To != ep.ID || m.Class != ClassPreserve || m.Size != size {
				t.Fatalf("receiver %s got %+v", ep.ID, m)
			}
		}
		if !slices.Equal(got, want[r]) {
			t.Fatalf("receiver %d (%s) got datagrams %v, want %v", r, ep.ID, got, want[r])
		}
	}
	for g := range counts {
		if counts[g] != wantCounts[g] {
			t.Fatalf("datagram %d reached %d receivers, want %d", g, counts[g], wantCounts[g])
		}
	}
	if got := w.Counters.Bytes(ClassPreserve); got != int64(bytes) {
		t.Fatalf("ClassPreserve bytes = %d, want %d", got, bytes)
	}
	if got := w.Counters.Messages(ClassPreserve); got != batch+singles {
		t.Fatalf("ClassPreserve messages = %d, want %d", got, batch+singles)
	}
}

// A BroadcastBatch reaches each receiver as one inbox message per airtime
// reservation, holding that reservation's datagrams minus the receiver's
// losses as the seeded generator replays them. The first two reservations
// hold 65 datagrams each, one past a loss word.
func TestWiFiBroadcastBatchOneMessagePerReservation(t *testing.T) {
	const seed, receivers = 5, 15
	w, from, eps := lossyRegion(t, receivers, true, seed)
	var grams []Datagram
	for i := 0; i < 211; i++ {
		size := 1000
		if i == 150 {
			size = chunkBytes // travels in a reservation of its own
		}
		grams = append(grams, Datagram{Size: size, Payload: i})
	}
	// Reservations: [0,65) [65,130) [130,150) [150,151) [151,211).
	resOf := func(g int) int {
		switch {
		case g < 130:
			return g / 65
		case g < 150:
			return 2
		case g == 150:
			return 3
		}
		return 4
	}
	const reservations = 5
	w.BroadcastBatch(from, ClassCheckpoint, grams)

	rng := rand.New(rand.NewSource(seed))
	want := make([][reservations][]int, receivers)
	for g := range grams {
		for r := range want {
			if rng.Float64() >= 0.3 {
				want[r][resOf(g)] = append(want[r][resOf(g)], g)
			}
		}
	}
	for r, ep := range eps {
		if n := len(ep.Inbox()); n > reservations {
			t.Fatalf("receiver %s holds %d messages for %d reservations", ep.ID, n, reservations)
		}
		for res := 0; res < reservations; res++ {
			if len(want[r][res]) == 0 {
				continue
			}
			var got []int
			for _, d := range Datagrams(nil, <-ep.Inbox()) {
				got = append(got, d.Payload.(int))
			}
			if !slices.Equal(got, want[r][res]) {
				t.Fatalf("receiver %s, reservation %d: got %v, want %v", ep.ID, res, got, want[r][res])
			}
		}
		if len(ep.Inbox()) != 0 {
			t.Fatalf("receiver %s holds %d extra messages", ep.ID, len(ep.Inbox()))
		}
	}
}

// A full inbox drops a whole burst and counts each of its datagrams in
// Drops; and a BroadcastBatch allocates at most twice, the datagram copy
// and the loss cells, however many datagrams and receivers it has.
func TestWiFiBroadcastBatchDropsAndAllocs(t *testing.T) {
	w := NewWiFi(testClock(), WiFiConfig{BitsPerSecond: 1e12})
	var eps []*Endpoint
	for _, id := range []NodeID{"a", "b", "c"} {
		ep := NewEndpoint(id, 1)
		w.Join(ep)
		eps = append(eps, ep)
	}
	grams := make([]Datagram, 200) // reservations of 65, 65, 65 and 5
	for i := range grams {
		grams[i] = Datagram{Size: 1000, Payload: i}
	}
	if got := w.BroadcastBatch("a", ClassCheckpoint, grams); got != 2*65 {
		t.Fatalf("delivered %d datagrams, want the first reservation's 65 to each of 2", got)
	}
	for _, ep := range eps[1:] {
		if got := ep.Drops(); got != 200-65 {
			t.Fatalf("%s dropped %d datagrams, want %d", ep.ID, got, 200-65)
		}
	}

	for _, receivers := range []int{1, 15, 40} {
		w, from, _ := lossyRegion(t, receivers, false, 1)
		for _, n := range []int{2, 64, 500} {
			grams := make([]Datagram, n)
			for i := range grams {
				grams[i] = Datagram{Size: 1000, Payload: i}
			}
			if a := testing.AllocsPerRun(20, func() { w.BroadcastBatch(from, ClassCheckpoint, grams) }); a > 2 {
				t.Fatalf("BroadcastBatch of %d datagrams to %d receivers allocates %.0f times, want <= 2", n, receivers, a)
			}
		}
	}
}

// A region whose stripes hold several members samples loss the same way,
// but its target order within a stripe is map order, so only the
// per-datagram receiver counts (target-order independent) are predictable.
func TestWiFiBroadcastLossCountsLargeRegion(t *testing.T) {
	const seed, receivers, n = 7, 40, 50
	w, from, eps := lossyRegion(t, receivers, false, seed)
	w.SetPresent(eps[0].ID, false)
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < n; g++ {
		want := 0
		for r := 1; r < receivers; r++ {
			if rng.Float64() >= 0.3 {
				want++
			}
		}
		if got := w.Broadcast(from, ClassPreserve, 64, g); got != want {
			t.Fatalf("datagram %d reached %d receivers, want %d", g, got, want)
		}
	}
	if len(eps[0].Inbox()) != 0 {
		t.Fatal("absent member received a broadcast")
	}
}

// A single-datagram broadcast allocates nothing of its own: it reads the
// cached roster and delivers the bare payload, with no copy or cells.
func TestWiFiBroadcastAllocs(t *testing.T) {
	w, _ := newTestWiFi(t, WiFiConfig{BitsPerSecond: 1e12})
	var payload interface{} = "blk"
	if a := testing.AllocsPerRun(1000, func() { w.Broadcast("a", ClassPreserve, 64, payload) }); a != 0 {
		t.Fatalf("Broadcast allocates %.0f times per call, want 0", a)
	}
}

// Detach unregisters a device.
func (c *Cellular) Detach(id NodeID) {
	c.mu.Lock()
	delete(c.endpoints, id)
	delete(c.up, id)
	delete(c.down, id)
	c.mu.Unlock()
}

// Reset zeroes all counters.
func (c *counters) Reset() {
	for i := range c.bytes {
		atomic.StoreInt64(&c.bytes[i], 0)
		atomic.StoreInt64(&c.msgs[i], 0)
	}
}

// Snapshot returns a copy of per-class byte counts keyed by class name.
func (c *counters) Snapshot() map[string]int64 {
	m := make(map[string]int64, numClasses)
	for i := Class(0); i < numClasses; i++ {
		m[i.String()] = c.Bytes(i)
	}
	return m
}

// Unseal revives a sealed endpoint (a replacement phone reusing an ID in
// tests, or a region restart).
func (e *Endpoint) Unseal() {
	e.sealed.Store(false)
}

// Members returns the IDs currently attached (present or not), in
// unspecified order.
func (w *WiFi) Members() []NodeID {
	var ids []NodeID
	for i := range w.stripes {
		s := &w.stripes[i]
		s.mu.RLock()
		for id := range s.members {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	return ids
}
