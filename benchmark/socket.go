package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/simnet"
	"mobistreams/internal/transport"
	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
)

// socket-relay: a benchmark-owned chain src -> r1 -> r2 -> sink of
// transport.Socket endpoints on loopback TCP. The source encodes 16-tuple
// wire.Batch frames and Tells them; each relay decodes, re-encodes and
// Tells; the sink decodes. Only internal/wire and internal/transport are
// involved, so the workload outlives the planned removal of xregion.

const (
	frameTuples  = 16
	payloadBytes = 64
)

// payload fills dst with the tuple's 64 B payload, a function of seed and id.
func payload(dst []byte, seed, id uint64) {
	for i := 0; i < payloadBytes/8; i++ {
		binary.LittleEndian.PutUint64(dst[8*i:], mix(seed^id^uint64(i)<<56))
	}
}

// payloadOK is the sink's reference: the received payload must equal the
// one regenerated from the tuple's identity.
func payloadOK(got []byte, seed, id uint64) bool {
	if len(got) != payloadBytes {
		return false
	}
	for i := 0; i < payloadBytes/8; i++ {
		if binary.LittleEndian.Uint64(got[8*i:]) != mix(seed^id^uint64(i)<<56) {
			return false
		}
	}
	return true
}

type socketSUT struct {
	seed  uint64
	socks []*transport.Socket // src, r1, r2, sink
	rec   *recorder
	c     *collector

	// Source-side frame under construction (generator goroutine only).
	batch  wire.Batch
	tuples [frameTuples]tuple.Tuple
	bufs   [frameTuples][payloadBytes]byte
	n      int
	frame  []byte
	frames uint64

	tellNs  atomic.Int64 // summed Tell time over timed frames, all stages
	tellCnt atomic.Int64
	errs    atomic.Int64
	once    sync.Once
}

var chainIDs = []simnet.NodeID{"src", "r1", "r2", "sink"}

func newSocketSUT(c *collector, seed uint64, rec *recorder) (*socketSUT, error) {
	s := &socketSUT{seed: seed, c: c, rec: rec}
	for _, id := range chainIDs {
		sk, err := transport.NewSocket(id, "127.0.0.1:0", "")
		if err != nil {
			s.close()
			return nil, err
		}
		s.socks = append(s.socks, sk)
	}
	for i := 0; i+1 < len(s.socks); i++ {
		s.socks[i].AddPeer(chainIDs[i+1], s.socks[i+1].Info().Addr)
	}
	for i := 1; i <= 2; i++ {
		s.socks[i].Receive(s.relay(i))
	}
	s.socks[3].Receive(s.sink)
	s.batch.ToSlot = "r1"
	s.batch.Msgs = make([]wire.Stream, frameTuples)
	return s, nil
}

// timed reports whether a frame (identified by its first tuple id) is one
// of those whose layer calls are recorded as spans: every 256th.
func (s *socketSUT) timed(first uint64) bool {
	return s.rec != nil && (first/frameTuples)%sampleEvery == 0
}

// tell sends a frame downstream, timing the call on sampled frames.
func (s *socketSUT) tell(from int, frame []byte, first uint64) {
	var t int64
	timed := s.timed(first)
	if timed {
		t = now()
	}
	if err := s.socks[from].Tell(chainIDs[from+1], simnet.ClassData, frame); err != nil {
		s.errs.Add(1)
		return
	}
	if timed {
		s.tellNs.Add(now() - t)
		s.tellCnt.Add(1)
		s.rec.call("Tell", t, first)
	}
}

// relay is stage i's handler: decode, re-encode for the next hop, tell.
// Handlers run sequentially per inbound connection, so buf is not shared.
func (s *socketSUT) relay(i int) transport.Handler {
	var buf []byte
	next := string(chainIDs[i+1])
	return func(_ simnet.NodeID, _ simnet.Class, frame []byte) {
		t := now()
		b, err := wire.DecodeBatch(frame)
		if err != nil || len(b.Msgs) == 0 || b.Msgs[0].Item.Tuple == nil {
			s.errs.Add(1)
			return
		}
		first := b.Msgs[0].Item.Tuple.Seq
		if s.timed(first) {
			s.rec.call("DecodeBatch", t, first)
			t = now()
		}
		b.ToSlot = next
		if buf, err = wire.AppendBatch(buf[:0], &b); err != nil {
			s.errs.Add(1)
			return
		}
		if s.timed(first) {
			s.rec.call("AppendBatch", t, first)
		}
		s.tell(i, buf, first)
	}
}

func (s *socketSUT) sink(_ simnet.NodeID, _ simnet.Class, frame []byte) {
	t := now()
	b, err := wire.DecodeBatch(frame)
	if err != nil {
		s.errs.Add(1)
		return
	}
	if len(b.Msgs) > 0 && b.Msgs[0].Item.Tuple != nil && s.timed(b.Msgs[0].Item.Tuple.Seq) {
		s.rec.call("DecodeBatch", t, b.Msgs[0].Item.Tuple.Seq)
	}
	for i := range b.Msgs {
		tp := b.Msgs[i].Item.Tuple
		if tp == nil {
			s.errs.Add(1)
			continue
		}
		got, _ := tp.Value.([]byte)
		s.c.deliver(tp.Seq, payloadOK(got, s.seed, tp.Seq))
	}
}

func (s *socketSUT) offer(id uint64) {
	i := s.n
	payload(s.bufs[i][:], s.seed, id)
	s.tuples[i] = tuple.Tuple{Seq: id, Source: "src", Kind: "relay", Created: time.Duration(now()), Size: payloadBytes, Value: s.bufs[i][:]}
	s.batch.Msgs[i] = wire.Stream{FromSlot: "src", FromOp: "gen", ToSlot: "r1", ToOp: "fwd", EdgeSeq: id, Item: tuple.DataItem(&s.tuples[i])}
	if s.n++; s.n == frameTuples {
		s.flush()
	}
}

func (s *socketSUT) flush() {
	if s.n == 0 {
		return
	}
	first := s.tuples[0].Seq
	t := now()
	b := wire.Batch{ToSlot: s.batch.ToSlot, Msgs: s.batch.Msgs[:s.n]}
	var err error
	if s.frame, err = wire.AppendBatch(s.frame[:0], &b); err != nil {
		s.errs.Add(1)
		s.n = 0
		return
	}
	if s.timed(first) {
		s.rec.call("AppendBatch", t, first)
	}
	s.n = 0
	s.frames++
	s.tell(0, s.frame, first)
}

func (s *socketSUT) netBytes() int64 {
	var total int64
	for _, sk := range s.socks {
		for cl := simnet.ClassData; cl <= simnet.ClassPreserve; cl++ {
			total += sk.SentBytes(cl)
		}
	}
	return total
}

func (s *socketSUT) close() {
	s.once.Do(func() {
		for _, sk := range s.socks {
			sk.Close()
		}
	})
}

func (s *socketSUT) notes() []string {
	if n := s.errs.Load(); n > 0 {
		return []string{fmt.Sprintf("unresolved: %d frames failed to decode, encode or send", n)}
	}
	return nil
}

func (s *socketSUT) ledger(l ledger, sinkTuples int64) {
	if n := s.tellCnt.Load(); n > 0 {
		l["transport.socket_tell_ns_per_frame"] = float64(s.tellNs.Load()) / float64(n)
	}
	l["transport.socket_frames"] = float64(3 * s.frames)
	l["transport.socket_bytes"] = float64(s.netBytes())
	var redials, dead int64
	for _, sk := range s.socks {
		st := sk.Stats()
		redials += st.Redials
		dead += st.DeadConns
	}
	l["transport.socket_redials"] = float64(redials)
	l["transport.socket_dead_conns"] = float64(dead)
	socketClosure(l, s.rec, s.c)
}

// socketClosure derives the trace.* rows from the benchmark's own spans of
// sampled frames. A frame's journey is batch hold (first tuple due ->
// source encode starts), op (every AppendBatch/DecodeBatch) and net (each
// Tell start -> the next stage starts decoding). The harness latency it is
// closed against is that of the frame's first tuple.
func socketClosure(l ledger, rec *recorder, c *collector) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	by := make(map[uint64][]span)
	for _, sp := range rec.spans {
		if sp.Trace != 0 {
			by[sp.Trace] = append(by[sp.Trace], sp)
		}
	}
	rec.mu.Unlock()
	cat := make(map[string][]int64)
	var sumHops, sumLat float64
	for first, ss := range by {
		lat, due, ok := c.harnessLatency(first)
		if !ok || len(ss) != 9 { // 3 encodes, 3 tells, 3 decodes
			continue
		}
		sortSpans(ss)
		hold := ss[0].Start - due
		var op, net int64
		for i, sp := range ss {
			switch sp.Name {
			case "Tell":
				if i+1 < len(ss) {
					net += ss[i+1].Start - sp.Start
				}
			default:
				op += sp.End - sp.Start
			}
		}
		cat["batch_hold"] = append(cat["batch_hold"], hold)
		cat["op"] = append(cat["op"], op)
		cat["net"] = append(cat["net"], net)
		cat["queue_wait"] = append(cat["queue_wait"], 0)
		sumHops += float64(hold + op + net)
		sumLat += float64(lat)
	}
	for _, name := range hopNames {
		v := cat[name]
		slices.Sort(v)
		l["trace."+name+"_us_p50"] = float64(percentile(v, 50)) / 1e3
	}
	if sumLat > 0 {
		l["trace.closure_ratio"] = sumHops / sumLat
	}
}

func socketWorkload() hostWorkload {
	return hostWorkload{
		name:    "socket-relay",
		rate:    socketRate,
		quantum: frameTuples,
		prepare: func(seed int64) any { return uint64(seed) },
		build: func(c *collector, in any, rec *recorder) (sut, error) {
			return newSocketSUT(c, in.(uint64), rec)
		},
		shape: microShape{value: make([]byte, payloadBytes), size: payloadBytes, kind: "relay", layers: []string{"wire", "transport"}},
	}
}
