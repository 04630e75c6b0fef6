package simnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/clock"
)

// chunkBytes bounds a single airtime or cellular link reservation: bulk
// sends are split into chunks so concurrent flows interleave.
const chunkBytes = 64 << 10

// WiFiConfig parameterises a region's ad-hoc WiFi.
type WiFiConfig struct {
	// BitsPerSecond is the per-channel medium capacity (paper: 1–5 Mbps).
	BitsPerSecond float64
	// LossProb is the independent per-receiver probability that a UDP
	// datagram is lost.
	LossProb float64
	// PropDelay is per-hop propagation/processing delay added after the
	// airtime completes.
	PropDelay time.Duration
	// FrameOverhead models the fixed per-transmission cost of the medium
	// — MAC/PHY framing, contention, link-layer ACKs — in byte-equivalents
	// of airtime charged once per unicast send or broadcast datagram
	// regardless of payload size. It is what edge-level tuple batching
	// amortises. Default 0 (payload-only accounting).
	FrameOverhead int
	// Channels is the number of independent airtime channels (access
	// points / spatial reuse). Members are assigned to channels
	// round-robin in Join order; a unicast occupies the sender's and the
	// receiver's channels (once when they share one), a broadcast
	// occupies every channel. The default 1 reproduces the classic
	// single shared medium exactly.
	Channels int
	// Assign, when non-nil, overrides round-robin channel assignment:
	// it maps a joining member to a channel (taken modulo Channels;
	// negative falls back to round-robin). This models deliberate AP
	// association — placing a fan-in neighbourhood on one channel keeps
	// its traffic in-cell instead of charging two cells per hop.
	Assign func(NodeID) int
	// Seed seeds the loss process for reproducibility.
	Seed int64
}

func (c *WiFiConfig) applyDefaults() {
	if c.BitsPerSecond <= 0 {
		c.BitsPerSecond = 3e6
	}
	if c.PropDelay < 0 {
		c.PropDelay = 0
	}
	if c.Channels <= 0 {
		c.Channels = 1
	}
}

// wifiChannel is one independent airtime domain. Reservations are made with
// a lock-free CAS on busyUntil: a transmission of B bytes reserves
// B/bandwidth of airtime starting at max(now, busyUntil), identical to the
// classic single-medium busy-until model.
type wifiChannel struct {
	// busyUntil is the simulated time the channel frees up (atomic ns).
	busyUntil int64
	// airtime accumulates every reserved duration (atomic ns): the exact
	// bytes-over-bitrate cost charged to this channel, independent of
	// idle gaps between reservations.
	airtime int64
}

// reserve books dur of airtime starting at max(now, busyUntil) and returns
// the reservation's end.
func (c *wifiChannel) reserve(now, dur time.Duration) time.Duration {
	atomic.AddInt64(&c.airtime, int64(dur))
	for {
		old := atomic.LoadInt64(&c.busyUntil)
		start := int64(now)
		if old > start {
			start = old
		}
		end := start + int64(dur)
		if atomic.CompareAndSwapInt64(&c.busyUntil, old, end) {
			return time.Duration(end)
		}
	}
}

// wifiMember is one endpoint's attachment: its channel assignment and
// whether it is in radio range. Guarded by its stripe's lock.
type wifiMember struct {
	ep      *Endpoint
	channel int
	present bool
}

// memberStripes shards the membership map so the per-send lookups of large
// regions do not serialise on one mutex.
const memberStripes = 16

type memberStripe struct {
	mu      sync.RWMutex
	members map[NodeID]*wifiMember
}

// WiFi is one region's shared-airtime broadcast medium, optionally split
// into several independent channels.
type WiFi struct {
	cfg WiFiConfig
	clk clock.Clock

	Counters counters

	chans    []wifiChannel
	stripes  [memberStripes]memberStripe
	nextChan uint32 // round-robin channel assignment (atomic)

	// roster caches the present members broadcasts deliver to. gen counts
	// membership changes; a roster built at an older gen is stale.
	gen    atomic.Uint64
	roster atomic.Pointer[roster]

	// uniBytes/crossBytes account reliable unicast traffic (effective
	// bytes, retransmissions included): crossBytes is the subset whose
	// sender and receiver sit on different channels and therefore charged
	// two cells of airtime for one transfer (atomics).
	uniBytes   int64
	crossBytes int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewWiFi creates a WiFi medium.
func NewWiFi(clk clock.Clock, cfg WiFiConfig) *WiFi {
	cfg.applyDefaults()
	w := &WiFi{
		cfg:   cfg,
		clk:   clk,
		chans: make([]wifiChannel, cfg.Channels),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range w.stripes {
		w.stripes[i].members = make(map[NodeID]*wifiMember)
	}
	return w
}

func (w *WiFi) stripe(id NodeID) *memberStripe {
	// Inline FNV-1a over the string: hash.Hash32 plus a []byte
	// conversion would put two heap allocations on every membership
	// lookup of the send path.
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &w.stripes[h%memberStripes]
}

// Join attaches an endpoint to the medium and marks it present. Channel
// assignment is round-robin in Join order, so a deterministic join sequence
// yields a deterministic channel map.
func (w *WiFi) Join(ep *Endpoint) {
	ch := int(atomic.AddUint32(&w.nextChan, 1)-1) % len(w.chans)
	if w.cfg.Assign != nil {
		if a := w.cfg.Assign(ep.ID); a >= 0 {
			ch = a % len(w.chans)
		}
	}
	s := w.stripe(ep.ID)
	s.mu.Lock()
	if m, ok := s.members[ep.ID]; ok {
		// Rejoining keeps the original channel assignment.
		m.ep = ep
		m.present = true
	} else {
		s.members[ep.ID] = &wifiMember{ep: ep, channel: ch, present: true}
	}
	w.gen.Add(1)
	s.mu.Unlock()
}

// SetPresent marks a member in or out of radio range. A departed phone
// (out of range) keeps its endpoint — it stays reachable over cellular.
func (w *WiFi) SetPresent(id NodeID, present bool) {
	s := w.stripe(id)
	s.mu.Lock()
	if m, ok := s.members[id]; ok {
		m.present = present
	}
	w.gen.Add(1)
	s.mu.Unlock()
}

// present reports whether the member is in radio range.
func (w *WiFi) present(id NodeID) bool {
	s := w.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.members[id]
	return ok && m.present
}

// Remove detaches an endpoint entirely (phone unregistered).
func (w *WiFi) Remove(id NodeID) {
	s := w.stripe(id)
	s.mu.Lock()
	delete(s.members, id)
	w.gen.Add(1)
	s.mu.Unlock()
}

// lookup snapshots one member's attachment state.
func (w *WiFi) lookup(id NodeID) (ep *Endpoint, channel int, present, ok bool) {
	s := w.stripe(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, found := s.members[id]
	if !found {
		return nil, 0, false, false
	}
	return m.ep, m.channel, m.present, true
}

// Channels reports the number of independent airtime channels.
func (w *WiFi) Channels() int { return len(w.chans) }

// ChannelOf reports a member's channel assignment.
func (w *WiFi) ChannelOf(id NodeID) (int, bool) {
	_, ch, _, ok := w.lookup(id)
	return ch, ok
}

// ChannelAirtime reports the total airtime reserved on a channel: exactly
// (effective bytes × 8 / BitsPerSecond) summed over every reservation the
// channel carried, independent of idle gaps.
func (w *WiFi) ChannelAirtime(i int) time.Duration {
	return time.Duration(atomic.LoadInt64(&w.chans[i].airtime))
}

// channelStat is one channel's membership and airtime snapshot.
type channelStat struct {
	Channel int
	// Members counts endpoints assigned to the channel (present or not);
	// Present counts the subset in radio range.
	Members int
	Present int
	// Airtime is the cumulative airtime reserved on the channel.
	Airtime time.Duration
}

// ChannelStats snapshots every channel's membership counts and cumulative
// airtime, ordered by channel index. Membership is read stripe-by-stripe,
// so counts are consistent per stripe but the snapshot as a whole is
// advisory under concurrent joins — exact for a quiesced medium.
func (w *WiFi) ChannelStats() []channelStat {
	stats := make([]channelStat, len(w.chans))
	for i := range stats {
		stats[i].Channel = i
		stats[i].Airtime = time.Duration(atomic.LoadInt64(&w.chans[i].airtime))
	}
	for i := range w.stripes {
		s := &w.stripes[i]
		s.mu.RLock()
		for _, m := range s.members {
			stats[m.channel].Members++
			if m.present {
				stats[m.channel].Present++
			}
		}
		s.mu.RUnlock()
	}
	return stats
}

// CrossChannelBytes reports the effective unicast bytes that crossed
// channels (charging both cells) and the effective unicast total. The ratio
// is the cross-channel airtime share the placement planner minimises.
func (w *WiFi) CrossChannelBytes() (cross, total int64) {
	return atomic.LoadInt64(&w.crossBytes), atomic.LoadInt64(&w.uniBytes)
}

// airtimeFor converts an effective byte count into airtime.
func (w *WiFi) airtimeFor(size int) time.Duration {
	return time.Duration(float64(size*8) / w.cfg.BitsPerSecond * float64(time.Second))
}

// occupyPair reserves airtime for size bytes on channel a and, when
// different, channel b (sender's and receiver's channels: both cells carry
// the transmission), sleeping in simulated time until the later reservation
// completes. It splits nothing — callers chunk bulk sends.
func (w *WiFi) occupyPair(size, a, b int) {
	dur := w.airtimeFor(size)
	now := w.clk.Now()
	end := w.chans[a].reserve(now, dur)
	if b != a {
		if e2 := w.chans[b].reserve(now, dur); e2 > end {
			end = e2
		}
	}
	if wait := end - now; wait > 0 {
		w.clk.Sleep(wait)
	}
}

// occupyAll reserves airtime for size bytes on every channel (broadcasts
// reach all cells) and sleeps until the latest reservation completes.
func (w *WiFi) occupyAll(size int) {
	dur := w.airtimeFor(size)
	now := w.clk.Now()
	var end time.Duration
	for i := range w.chans {
		if e := w.chans[i].reserve(now, dur); e > end {
			end = e
		}
	}
	if wait := end - now; wait > 0 {
		w.clk.Sleep(wait)
	}
}

// lost samples the per-receiver UDP loss process.
func (w *WiFi) lost() bool {
	if w.cfg.LossProb <= 0 {
		return false
	}
	w.rngMu.Lock()
	l := w.rng.Float64() < w.cfg.LossProb
	w.rngMu.Unlock()
	return l
}

// effectiveBytes inflates a payload by framing overhead and the
// retransmissions a reliable transfer pays on a lossy medium.
func (w *WiFi) effectiveBytes(size int) int {
	eff := size + w.cfg.FrameOverhead
	if w.cfg.LossProb > 0 && w.cfg.LossProb < 1 {
		eff = int(float64(eff) / (1 - w.cfg.LossProb))
	}
	return eff
}

// Unicast sends reliably (TCP-like) to one present member. The airtime is
// inflated by the loss rate to account for retransmissions. It blocks until
// the message is delivered and returns errUnreachable if the destination is
// absent, sealed, or detached.
func (w *WiFi) Unicast(from, to NodeID, class Class, size int, payload interface{}) error {
	return w.send(from, to, class, size, payload, nil)
}

// Request sends reliably like Unicast and arranges for the response to be
// delivered on reply, which the caller owns: it must have room for the
// answer, since the responder does not wait for a reader.
func (w *WiFi) Request(from, to NodeID, class Class, size int, payload interface{}, reply chan Message) error {
	return w.send(from, to, class, size, payload, reply)
}

// Respond answers a Request: it charges airtime for the response and
// delivers it directly to the requester's reply channel.
func (w *WiFi) Respond(req Message, from NodeID, class Class, size int, payload interface{}) {
	if req.Reply == nil {
		return
	}
	_, fromCh, _, fromOK := w.lookup(from)
	_, toCh, _, toOK := w.lookup(req.From)
	if !fromOK {
		fromCh = 0
	}
	if !toOK {
		toCh = fromCh
	}
	eff := w.effectiveBytes(size)
	w.occupyPair(eff, fromCh, toCh)
	atomic.AddInt64(&w.uniBytes, int64(eff))
	if fromCh != toCh {
		atomic.AddInt64(&w.crossBytes, int64(eff))
	}
	w.Counters.add(class, size)
	if w.cfg.PropDelay > 0 {
		w.clk.Sleep(w.cfg.PropDelay)
	}
	req.Reply <- Message{From: from, To: req.From, Class: class, Size: size, Payload: payload}
}

func (w *WiFi) send(from, to NodeID, class Class, size int, payload interface{}, reply chan Message) error {
	_, fromCh, fromPresent, fromOK := w.lookup(from)
	ep, toCh, toPresent, toOK := w.lookup(to)
	if !toOK || !toPresent || !fromOK || !fromPresent || ep.sealed.Load() {
		return errUnreachable
	}
	// Reliable transfer over a lossy medium costs extra airtime for
	// retransmissions: effective bytes = (size + framing) / (1 - loss).
	remaining := w.effectiveBytes(size)
	atomic.AddInt64(&w.uniBytes, int64(remaining))
	if fromCh != toCh {
		atomic.AddInt64(&w.crossBytes, int64(remaining))
	}
	for remaining > 0 {
		chunk := remaining
		if chunk > chunkBytes {
			chunk = chunkBytes
		}
		w.occupyPair(chunk, fromCh, toCh)
		remaining -= chunk
	}
	w.Counters.add(class, size)
	if w.cfg.PropDelay > 0 {
		w.clk.Sleep(w.cfg.PropDelay)
	}
	// Re-check reachability after airtime: the destination may have
	// failed while the transfer was queued.
	if !w.present(to) || ep.sealed.Load() {
		return errUnreachable
	}
	ep.inbox <- Message{From: from, To: to, Class: class, Size: size, Payload: payload, Reply: reply}
	return nil
}

// Datagram is one UDP payload for BroadcastBatch.
type Datagram struct {
	Size    int
	Payload interface{}
}

// burst is one receiver's share of a multi-datagram airtime reservation:
// its datagrams and the receiver's loss bits, 64 per cell. words is the
// receiver's consecutive cells; only the first holds grams and words.
type burst struct {
	grams []Datagram
	words []burst
	lost  uint64
}

func (b *burst) lostAt(i int) bool { return b.words[i/64].lost&(1<<(i%64)) != 0 }

// Datagrams appends to dst the datagrams m brings: those of a burst its
// receiver did not lose, in send order, or else m's own payload.
func Datagrams(dst []Datagram, m Message) []Datagram {
	b, ok := m.Payload.(*burst)
	if !ok {
		return append(dst, Datagram{Size: m.Size, Payload: m.Payload})
	}
	for i, g := range b.grams {
		if !b.lostAt(i) {
			dst = append(dst, g)
		}
	}
	return dst
}

// Broadcast sends one UDP datagram to every present member except the
// sender. Delivery is best-effort: each receiver independently loses the
// datagram with LossProb, and a full inbox drops it. The airtime is charged
// once per channel regardless of receiver count — this is the broadcast
// amortisation MobiStreams exploits (§III-C). It returns the number of
// members that received the datagram, as the message's bare payload.
func (w *WiFi) Broadcast(from NodeID, class Class, size int, payload interface{}) int {
	gram := [1]Datagram{{Size: size, Payload: payload}}
	return w.BroadcastBatch(from, class, gram[:])
}

// BroadcastBatch sends a burst of UDP datagrams back-to-back, reserving
// airtime in chunks of up to 64 KB so concurrent flows interleave with the
// burst. Each receiver gets one message per reservation, holding the
// datagrams it did not lose (the bare payload if the reservation holds one
// datagram); a full inbox drops the message, counting its datagrams in
// Drops. It returns how many datagrams were delivered, over all receivers.
func (w *WiFi) BroadcastBatch(from NodeID, class Class, grams []Datagram) int {
	if len(grams) == 0 || !w.present(from) {
		return 0
	}
	members := w.members()
	// Bursts share one copy of grams, which receivers read after the caller
	// moves on, and carve loss words from one array, a row per member.
	words := 0
	for start := 0; start < len(grams); {
		end, _ := w.reservation(grams, start)
		if end-start > 1 {
			words += (end - start + 63) / 64
		}
		start = end
	}
	var own []Datagram
	var cells []burst
	if words > 0 && len(members) > 1 {
		own = append([]Datagram(nil), grams...)
		cells = make([]burst, words*len(members))
	}
	// Reserve airtime one chunk of datagrams at a time so concurrent
	// unicast flows interleave with a long burst, then deliver the chunk.
	delivered := 0
	for start := 0; start < len(grams); {
		end, bytes := w.reservation(grams, start)
		w.occupyAll(bytes)
		for _, g := range grams[start:end] {
			w.Counters.add(class, g.Size)
		}
		if g := grams[start]; end-start == 1 {
			for _, ep := range members {
				if ep.ID != from && !w.lost() && ep.offer(Message{From: from, To: ep.ID, Class: class, Size: g.Size, Payload: g.Payload}, 1) {
					delivered++
				}
			}
		} else if cells != nil {
			n := (end - start + 63) / 64 * len(members)
			delivered += w.deliverBurst(from, class, own[start:end], members, cells[:n])
			cells = cells[n:]
		}
		start = end
	}
	return delivered
}

// reservation returns the end and airtime bytes of the reservation starting
// at grams[start]: one datagram, then as many as fit within chunkBytes.
func (w *WiFi) reservation(grams []Datagram, start int) (end, bytes int) {
	end = start
	for end < len(grams) && (bytes == 0 || bytes+grams[end].Size <= chunkBytes) {
		bytes += grams[end].Size + w.cfg.FrameOverhead
		end++
	}
	return end, bytes
}

// deliverBurst draws every loss of one reservation under one lock, datagram
// by datagram in member order, into each member's row of cells, then offers
// every member but the sender the datagrams it did not lose as one message.
func (w *WiFi) deliverBurst(from NodeID, class Class, grams []Datagram, members []*Endpoint, cells []burst) (delivered int) {
	words := len(cells) / len(members)
	if p := w.cfg.LossProb; p > 0 {
		w.rngMu.Lock()
		for i := range grams {
			for t, ep := range members {
				if ep.ID != from && w.rng.Float64() < p {
					cells[t*words+i/64].lost |= 1 << (i % 64)
				}
			}
		}
		w.rngMu.Unlock()
	}
	for t, ep := range members {
		b := &cells[t*words]
		b.grams, b.words = grams, cells[t*words:(t+1)*words]
		got, size := 0, 0
		for i, g := range grams {
			if !b.lostAt(i) {
				got, size = got+1, size+g.Size
			}
		}
		if ep.ID != from && got > 0 && ep.offer(Message{From: from, To: ep.ID, Class: class, Size: size, Payload: b}, got) {
			delivered += got
		}
	}
	return delivered
}

// roster is the present members, in stripe order, at one membership gen.
type roster struct {
	gen     uint64
	members []*Endpoint
}

// members returns the present members from the roster, rebuilt after a
// membership change. gen is read before the scan, so a change racing the
// scan leaves the new roster stale, never wrong.
func (w *WiFi) members() []*Endpoint {
	gen := w.gen.Load()
	if r := w.roster.Load(); r != nil && r.gen == gen {
		return r.members
	}
	r := &roster{gen: gen}
	for i := range w.stripes {
		s := &w.stripes[i]
		s.mu.RLock()
		for _, m := range s.members {
			if m.present {
				r.members = append(r.members, m.ep)
			}
		}
		s.mu.RUnlock()
	}
	w.roster.Store(r)
	return r.members
}
