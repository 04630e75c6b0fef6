package broadcast

import (
	"testing"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
)

// scriptMedium delivers blocks according to a deterministic per-phase rule,
// reproducing the loss pattern of the paper's Fig. 6 walk-through.
type scriptMedium struct {
	receivers map[simnet.NodeID]*Receiver
	phase     int
	deliver   func(phase int, to simnet.NodeID, blockIdx int) bool
	tcpSends  []string
	// inPlace answers queries like a node runtime (Receiver.Answer)
	// instead of with a []bool.
	inPlace bool
}

func (s *scriptMedium) BroadcastBatch(from simnet.NodeID, class simnet.Class, grams []simnet.Datagram) int {
	s.phase++
	delivered := 0
	for _, g := range grams {
		bm := g.Payload.(*BlockMsg)
		for id, r := range s.receivers {
			if s.deliver(s.phase, id, bm.Index) {
				r.OnBlock(*bm)
				delivered++
			}
		}
	}
	return delivered
}

func (s *scriptMedium) Request(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}, reply chan simnet.Message) error {
	q := payload.(QueryMsg)
	var answer interface{}
	if s.inPlace {
		answer = s.receivers[to].Answer(q)
	} else {
		answer = s.receivers[to].Bitmap(q)
	}
	reply <- simnet.Message{From: to, To: from, Class: class, Size: BitmapWireBytes(q.Total), Payload: answer}
	return nil
}

func (s *scriptMedium) Unicast(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) error {
	s.tcpSends = append(s.tcpSends, string(from)+"->"+string(to))
	if r, ok := s.receivers[to]; ok {
		r.OnFill(payload.(FillMsg))
	}
	return nil
}

// TestPaperWalkthrough reproduces Fig. 6 exactly: an 8 MB checkpoint (8192
// 1 KB blocks) to receivers A, B, C. Phase 1: A gets the first 3 messages,
// B all even messages, C all odd messages -> gain 8195 KB = cost 8195 KB,
// continue. Phase 2: A and B complete, C unchanged -> gain 12285 KB > cost
// 8195 KB, continue. Phase 3 (resend evens): C gets all but M2 -> gain
// 4095 KB < cost 4099 KB, stop UDP; TCP tree delivers M2.
func TestPaperWalkthrough(t *testing.T) {
	const totalBlocks = 8192
	blob := &checkpoint.Blob{Slot: "sender", Version: 1, Size: totalBlocks * 1024, Ops: map[string][]byte{}}
	stores := map[simnet.NodeID]*storage.Store{"A": storage.New(), "B": storage.New(), "C": storage.New()}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
		"A": NewReceiver(stores["A"]),
		"B": NewReceiver(stores["B"]),
		"C": NewReceiver(stores["C"]),
	}}
	// Message M(k) in the paper is block index k-1.
	med.deliver = func(phase int, to simnet.NodeID, b int) bool {
		switch phase {
		case 1:
			switch to {
			case "A":
				return b < 3
			case "B":
				return b%2 == 1 // M2, M4, ... (even messages)
			default:
				return b%2 == 0 // M1, M3, ... (odd messages)
			}
		case 2:
			return to == "A" || to == "B"
		default:
			return to != "C" || b != 1 // C misses M2 only
		}
	}

	st := Disseminate(med, clock.NewManual(), "sender", []simnet.NodeID{"A", "B", "C"}, blob, Config{BlockSize: 1024})

	if st.UDPPhases != 3 {
		t.Fatalf("UDP phases = %d, want 3", st.UDPPhases)
	}
	wantUDP := int64((8192 + 8192 + 4096) * 1024)
	if st.UDPBytes != wantUDP {
		t.Fatalf("UDP bytes = %d, want %d", st.UDPBytes, wantUDP)
	}
	// 3 receivers x 3 phases x 1 KB bitmaps.
	if st.BitmapBytes != 9*1024 {
		t.Fatalf("bitmap bytes = %d, want %d", st.BitmapBytes, 9*1024)
	}
	// M2 travels sender->A (root, subtree needs it) and A->C.
	if st.TCPBytes != 2*1024 {
		t.Fatalf("TCP bytes = %d, want 2048", st.TCPBytes)
	}
	if len(st.Complete) != 3 || len(st.Unreachable) != 0 {
		t.Fatalf("complete=%v unreachable=%v", st.Complete, st.Unreachable)
	}
	for id, r := range med.receivers {
		if !r.Complete("sender", 1) {
			t.Fatalf("receiver %s incomplete", id)
		}
		if _, ok := stores[id].Blob(1, "sender"); !ok {
			t.Fatalf("receiver %s did not persist blob", id)
		}
	}
}

func TestDisseminateNoLossSinglePhase(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 2, Size: 10 * 1024, Ops: map[string][]byte{}}
	stores := map[simnet.NodeID]*storage.Store{"A": storage.New(), "B": storage.New()}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
		"A": NewReceiver(stores["A"]), "B": NewReceiver(stores["B"]),
	}}
	med.deliver = func(int, simnet.NodeID, int) bool { return true }
	st := Disseminate(med, clock.NewManual(), "s", []simnet.NodeID{"A", "B"}, blob, Config{BlockSize: 1024})
	if st.UDPPhases != 1 {
		t.Fatalf("phases = %d, want 1", st.UDPPhases)
	}
	if st.TCPBytes != 0 {
		t.Fatalf("TCP bytes = %d, want 0", st.TCPBytes)
	}
	if len(st.Complete) != 2 {
		t.Fatalf("complete = %v", st.Complete)
	}
}

func TestDisseminateTotalLossFallsBackToTCP(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 3, Size: 4 * 1024, Ops: map[string][]byte{}}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
		"A": NewReceiver(storage.New()), "B": NewReceiver(storage.New()),
	}}
	med.deliver = func(int, simnet.NodeID, int) bool { return false }
	st := Disseminate(med, clock.NewManual(), "s", []simnet.NodeID{"A", "B"}, blob, Config{BlockSize: 1024})
	// Phase 1: gain 0 < cost -> straight to TCP, which must complete both.
	if st.UDPPhases != 1 {
		t.Fatalf("phases = %d, want 1", st.UDPPhases)
	}
	if len(st.Complete) != 2 {
		t.Fatalf("complete = %v", st.Complete)
	}
	// Tree: sender->A carries all 4 blocks (A+B need them), A->B all 4.
	if st.TCPBytes != 8*1024 {
		t.Fatalf("TCP bytes = %d, want 8192", st.TCPBytes)
	}
}

func TestDisseminateNoPeers(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: 1024, Ops: map[string][]byte{}}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{}}
	med.deliver = func(int, simnet.NodeID, int) bool { return true }
	st := Disseminate(med, clock.NewManual(), "s", nil, blob, Config{})
	if st.UDPPhases != 0 || st.UDPBytes != 0 {
		t.Fatalf("stats = %+v, want empty", st)
	}
}

// serveReceivers joins one endpoint per id to w and runs a receiver on
// each, dispatching like a node runtime does: UDP blocks, alone or in a
// burst, go through simnet.Datagrams to Receiver.OnBlocks. It returns every receiver's
// store; the goroutines exit when the test ends.
func serveReceivers(t *testing.T, w *simnet.WiFi, ids []simnet.NodeID) map[simnet.NodeID]*storage.Store {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	stores := make(map[simnet.NodeID]*storage.Store)
	for _, id := range ids {
		ep := simnet.NewEndpoint(id, 1<<14)
		w.Join(ep)
		store := storage.New()
		stores[id] = store
		recv := NewReceiver(store)
		go func(id simnet.NodeID, ep *simnet.Endpoint) {
			var grams []simnet.Datagram
			for {
				select {
				case m := <-ep.Inbox():
					switch p := m.Payload.(type) {
					case FillMsg:
						recv.OnFill(p)
					case QueryMsg:
						w.Respond(m, id, simnet.ClassBitmap, BitmapWireBytes(p.Total), recv.Answer(p))
					default:
						grams = simnet.Datagrams(grams[:0], m)
						recv.OnBlocks(grams)
					}
				case <-stop:
					return
				}
			}
		}(id, ep)
	}
	return stores
}

// TestDisseminateLive runs the protocol over the real simulated WiFi with
// 30% UDP loss and receiver goroutines behaving like node runtimes.
func TestDisseminateLive(t *testing.T) {
	clk := clock.NewScaled(5000)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 20e6, LossProb: 0.3, Seed: 7})
	w.Join(simnet.NewEndpoint("s", 1<<14))
	peers := []simnet.NodeID{"A", "B", "C"}
	stores := serveReceivers(t, w, peers)

	blob := &checkpoint.Blob{Slot: "s", Version: 9, Size: 64 * 1024, Ops: map[string][]byte{}}
	st := Disseminate(w, clk, "s", peers, blob, Config{BlockSize: 1024, QueryTimeout: 60 * time.Second})
	if len(st.Complete) != 3 {
		t.Fatalf("complete = %v, unreachable = %v", st.Complete, st.Unreachable)
	}
	// TCP fills are delivered asynchronously through inboxes; poll until
	// the receiver goroutines have persisted the blob.
	deadline := time.Now().Add(2 * time.Second)
	for _, id := range peers {
		for {
			if _, ok := stores[id].Blob(9, "s"); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %s missing blob", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if st.UDPBytes < 64*1024 {
		t.Fatalf("UDP bytes = %d, expected at least one full pass", st.UDPBytes)
	}
	// Broadcast amortisation: total network bytes should be far below
	// 3x unicast (one copy per peer).
	total := st.UDPBytes + st.TCPBytes + st.BitmapBytes
	if total >= 3*64*1024 {
		t.Fatalf("broadcast dissemination cost %d >= 3x unicast cost", total)
	}
}

// TestDisseminateBlocksImmutable runs a lossy multi-phase dissemination
// while every receiver reads block messages on its own goroutine, among
// them a bystander the sender never queries, whose reads nothing orders
// before the sender's next phase. Later phases resend pointers into the
// block array carved before phase 1; run under -race, a write to that
// array after phase 1 is reported against the bystander's reads.
func TestDisseminateBlocksImmutable(t *testing.T) {
	clk := clock.NewScaled(5000)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 20e6, LossProb: 0.4, Seed: 3})
	w.Join(simnet.NewEndpoint("s", 1<<14))
	peers := []simnet.NodeID{"A", "B", "C"}
	serveReceivers(t, w, append(peers, "bystander"))

	blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: 64 * 1024, Ops: map[string][]byte{}}
	st := Disseminate(w, clk, "s", peers, blob, Config{BlockSize: 1024, QueryTimeout: 60 * time.Second})
	if st.UDPPhases < 2 {
		t.Fatalf("UDP phases = %d, want a resend phase", st.UDPPhases)
	}
	if len(st.Complete) != 3 {
		t.Fatalf("complete = %v, unreachable = %v", st.Complete, st.Unreachable)
	}
}

// Disseminate allocates per call and per peer, never per block: a 64-block
// blob costs no more allocations than a 4-block one. The receivers already
// hold the blob after the warm-up call, so only the sender's side counts.
func TestDisseminateAllocsIndependentOfBlocks(t *testing.T) {
	allocs := func(blocks int) float64 {
		blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: blocks * 1024, Ops: map[string][]byte{}}
		med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
			"A": NewReceiver(storage.New()), "B": NewReceiver(storage.New()),
		}}
		med.deliver = func(int, simnet.NodeID, int) bool { return true }
		peers, clk := []simnet.NodeID{"A", "B"}, clock.NewManual()
		return testing.AllocsPerRun(100, func() {
			Disseminate(med, clk, "s", peers, blob, Config{BlockSize: 1024})
		})
	}
	if four, sixtyFour := allocs(4), allocs(64); sixtyFour > four {
		t.Fatalf("Disseminate allocates %.0f objects for 64 blocks and %.0f for 4, want no more", sixtyFour, four)
	}
}

// Once a dissemination's per-peer state exists, a bitmap query round trip
// allocates nothing: the query is boxed once, the reply channel and the
// answer buffer are reused, the answer is filled, and the timeout is one
// re-armed timer.
func TestQueryRoundTripAllocatesNothing(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: 8 * 1024, Ops: map[string][]byte{}}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{"A": NewReceiver(storage.New())}, inPlace: true}
	peers := newPeers([]simnet.NodeID{"A"}, blob, 8)
	timer := clock.NewScaled(1).NewTimer(time.Minute)
	defer timer.Stop()
	ask := func() {
		if _, err := peers[0].ask(nil, med, timer, "s", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	ask() // the first phase's query makes the receiver's assembler
	if allocs := testing.AllocsPerRun(100, ask); allocs != 0 {
		t.Fatalf("a second-phase query round trip allocates %.1f objects, want 0", allocs)
	}
}

// A late answer from a peer that timed out lands in its own reply channel
// without blocking the responder, and the peer is written off.
func TestTimedOutPeerIsWrittenOff(t *testing.T) {
	clk := clock.NewManual()
	blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: 2 * 1024, Ops: map[string][]byte{}}
	peers := newPeers([]simnet.NodeID{"A"}, blob, 2)
	timer := clk.NewTimer(time.Second)
	timer.Stop()
	med := &silentMedium{}
	done := make(chan error, 1)
	go func() {
		_, err := peers[0].ask(nil, med, timer, "s", time.Second)
		done <- err
	}()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Second)
	if err := <-done; err != errQueryTimeout {
		t.Fatalf("ask = %v, want a timeout", err)
	}
	select {
	case peers[0].reply <- simnet.Message{Payload: filled{}}:
	default:
		t.Fatal("the timed-out peer's reply channel has no room for its late answer")
	}
}

// silentMedium accepts every query and never answers.
type silentMedium struct{ scriptMedium }

func (*silentMedium) Request(simnet.NodeID, simnet.NodeID, simnet.Class, int, interface{}, chan simnet.Message) error {
	return nil
}

// block is the BlockMsg a sender transmits for chunk index of blob.
func block(blob *checkpoint.Blob, index, total int) BlockMsg {
	return BlockMsg{Slot: blob.Slot, Version: blob.Version, Index: index, Total: total, Blob: blob,
		CRC: checkpoint.ChunkCRC(blob.CRC, index)}
}

func TestReceiverDuplicateAndBitmap(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 3 * 1024, Ops: map[string][]byte{}}
	msg := block(blob, 0, 3)
	if r.OnBlock(msg) {
		t.Fatal("one of three blocks should not complete")
	}
	if r.OnBlock(msg) {
		t.Fatal("duplicate block should be a no-op")
	}
	if got := r.ReceivedBlocks("n", 1); got != 1 {
		t.Fatalf("received = %d, want 1", got)
	}
	bm := r.Bitmap(QueryMsg{Slot: "n", Version: 1, Total: 3})
	if !bm[0] || bm[1] || bm[2] {
		t.Fatalf("bitmap = %v", bm)
	}
	if r.OnBlock(block(blob, 1, 3)) {
		t.Fatal("two of three should not complete")
	}
	fill := FillMsg{Slot: "n", Version: 1, Total: 3, Indices: []int{2}, CRCs: []uint32{checkpoint.ChunkCRC(blob.CRC, 2)}, Blob: blob}
	if !r.OnFill(fill) {
		t.Fatal("final fill should complete")
	}
	if !r.Complete("n", 1) {
		t.Fatal("not marked complete")
	}
}

// A chunk that carries no checksum is not recorded, by UDP block or by TCP
// fill: the bitmap reports it missing, so the sender retransmits it.
func TestReceiverRejectsUnchecksummedChunk(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 2 * 1024, Ops: map[string][]byte{}}
	bare := block(blob, 0, 2)
	bare.CRC = 0
	if r.OnBlock(bare) || r.OnFill(FillMsg{Slot: "n", Version: 1, Total: 2, Indices: []int{1}, Blob: blob}) {
		t.Fatal("a chunk without a checksum completed the blob")
	}
	if bm := r.Bitmap(QueryMsg{Slot: "n", Version: 1, Total: 2}); bm[0] || bm[1] {
		t.Fatalf("bitmap = %v, want both chunks missing", bm)
	}
	if r.OnBlock(block(blob, 0, 2)) || !r.OnBlock(block(blob, 1, 2)) {
		t.Fatal("the retransmitted chunks should complete the blob")
	}
}

func TestReceiverOutOfRangeIndex(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 1024, Ops: map[string][]byte{}}
	if r.OnBlock(block(blob, 99, 1)) {
		t.Fatal("out-of-range index treated as progress")
	}
	if r.OnBlock(block(blob, -1, 1)) {
		t.Fatal("negative index treated as progress")
	}
}

func TestReceiverDropBefore(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 2048, Ops: map[string][]byte{}}
	r.OnBlock(block(blob, 0, 2))
	if got := r.ReceivedBlocks("n", 1); got != 1 {
		t.Fatalf("received before drop = %d, want 1", got)
	}
	r.DropBefore(2)
	if got := r.ReceivedBlocks("n", 1); got != 0 {
		t.Fatalf("received after drop = %d", got)
	}
}

func TestNumBlocksAndBlockBytes(t *testing.T) {
	if numBlocks(0, 1024) != 1 {
		t.Fatal("empty blob should ship one descriptor block")
	}
	if numBlocks(1024, 1024) != 1 || numBlocks(1025, 1024) != 2 {
		t.Fatal("numBlocks rounding wrong")
	}
	if blockBytes(1500, 1024, 0) != 1024 || blockBytes(1500, 1024, 1) != 476 {
		t.Fatal("blockBytes wrong")
	}
	if BitmapWireBytes(8192) != 1024 || BitmapWireBytes(1) != 1 {
		t.Fatal("bitmap wire size wrong")
	}
}

// Complete reports whether the blob for (slot, version) is fully assembled.
func (r *Receiver) Complete(slot string, version uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.asm[asmKey{slot, version}]
	return ok && a.done
}

// ReceivedBlocks reports how many blocks of a stream have arrived.
func (r *Receiver) ReceivedBlocks(slot string, version uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.asm[asmKey{slot, version}]
	if !ok {
		return 0
	}
	return a.count
}
