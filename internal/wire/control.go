package wire

import (
	"mobistreams/internal/simnet"
)

// Command is the wire form of a controller-to-node command. Op mirrors
// node.CommandOp values.
type Command struct {
	Op      uint8
	Version uint64
	Epoch   uint64
	Target  simnet.NodeID
	Slot    string
}

// Report is the wire form of a node-to-controller report. Type mirrors
// node.reportType values.
type Report struct {
	Type     uint8
	Phone    simnet.NodeID
	Slot     string
	Version  uint64
	Epoch    uint64
	Holders  []simnet.NodeID
	Observed simnet.NodeID
	Err      string
}

// truncate is the wire form of a retained-output truncation notice.
type truncate struct {
	Downstream string
	Upto       uint64
}

// resend is the wire form of an upstream resend request.
type resend struct {
	Downstream string
	After      uint64
}

// fetchBlob is the wire form of a peer blob fetch request.
type fetchBlob struct {
	Slot    string
	Version uint64
}

// Hello is the socket-transport handshake: the first frame on every
// connection, identifying the dialing peer and the address its own
// listener is reachable at.
type Hello struct {
	ID   simnet.NodeID
	Addr string
}

// Assign is the lead-to-worker region assignment: the workload parameters,
// the stage chain with its slot-to-node placement, and the peer address
// book workers need to dial each other.
type Assign struct {
	Lead       simnet.NodeID
	Seed       int64
	Tuples     int
	TokenEvery int
	// SampleEvery enables tuple tracing on the workers: every n-th
	// source tuple is traced (0 = off). Carried in the assignment so
	// every process in the region samples the same tuples.
	SampleEvery int
	Stages      []AssignStage
	Peers       []AssignPeer
}

// AssignStage places one pipeline stage: the slot name, the operator the
// stage runs, and the node hosting it.
type AssignStage struct {
	Slot string
	Op   string
	Host simnet.NodeID
}

// AssignPeer is one address book entry.
type AssignPeer struct {
	ID   simnet.NodeID
	Addr string
}

// SizeCommand reports the exact frame size AppendCommand will produce.
func SizeCommand(c *Command) int {
	return 1 + 1 + 8 + 8 + sizeString(string(c.Target)) + sizeString(c.Slot)
}

// AppendCommand encodes a command frame onto dst.
func AppendCommand(dst []byte, c *Command) []byte {
	dst = appendU8(dst, byte(KindCommand))
	dst = appendU8(dst, c.Op)
	dst = appendU64(dst, c.Version)
	dst = appendU64(dst, c.Epoch)
	dst = appendString(dst, string(c.Target))
	return appendString(dst, c.Slot)
}

// DecodeCommand decodes a command frame.
func DecodeCommand(frame []byte) (Command, error) {
	r := reader{b: frame}
	r.kind(KindCommand)
	var c Command
	c.Op = r.u8()
	c.Version = r.u64()
	c.Epoch = r.u64()
	c.Target = simnet.NodeID(r.str())
	c.Slot = r.str()
	return c, r.done()
}

// SizeReport reports the exact frame size AppendReport will produce.
func SizeReport(rp *Report) int {
	total := 1 + 1 + sizeString(string(rp.Phone)) + sizeString(rp.Slot) +
		8 + 8 + 4 + sizeString(string(rp.Observed)) + sizeString(rp.Err)
	for _, id := range rp.Holders {
		total += sizeString(string(id))
	}
	return total
}

// AppendReport encodes a report frame onto dst.
func AppendReport(dst []byte, rp *Report) []byte {
	dst = appendU8(dst, byte(KindReport))
	dst = appendU8(dst, rp.Type)
	dst = appendString(dst, string(rp.Phone))
	dst = appendString(dst, rp.Slot)
	dst = appendU64(dst, rp.Version)
	dst = appendU64(dst, rp.Epoch)
	dst = appendU32(dst, uint32(len(rp.Holders)))
	for _, id := range rp.Holders {
		dst = appendString(dst, string(id))
	}
	dst = appendString(dst, string(rp.Observed))
	return appendString(dst, rp.Err)
}

// DecodeReport decodes a report frame.
func DecodeReport(frame []byte) (Report, error) {
	r := reader{b: frame}
	r.kind(KindReport)
	var rp Report
	rp.Type = r.u8()
	rp.Phone = simnet.NodeID(r.str())
	rp.Slot = r.str()
	rp.Version = r.u64()
	rp.Epoch = r.u64()
	if n := r.count(4); r.err == nil && n > 0 {
		rp.Holders = make([]simnet.NodeID, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			rp.Holders = append(rp.Holders, simnet.NodeID(r.str()))
		}
	}
	rp.Observed = simnet.NodeID(r.str())
	rp.Err = r.str()
	return rp, r.done()
}

// SizeTruncate reports the exact frame size AppendTruncate will produce.
func SizeTruncate(t *truncate) int { return 1 + sizeString(t.Downstream) + 8 }

// AppendTruncate encodes a truncation frame onto dst.
func AppendTruncate(dst []byte, t *truncate) []byte {
	dst = appendU8(dst, byte(kindTruncate))
	dst = appendString(dst, t.Downstream)
	return appendU64(dst, t.Upto)
}

// decodeTruncate decodes a truncation frame.
func decodeTruncate(frame []byte) (truncate, error) {
	r := reader{b: frame}
	r.kind(kindTruncate)
	var t truncate
	t.Downstream = r.str()
	t.Upto = r.u64()
	return t, r.done()
}

// SizeResend reports the exact frame size AppendResend will produce.
func SizeResend(m *resend) int { return 1 + sizeString(m.Downstream) + 8 }

// AppendResend encodes a resend request frame onto dst.
func AppendResend(dst []byte, m *resend) []byte {
	dst = appendU8(dst, byte(kindResend))
	dst = appendString(dst, m.Downstream)
	return appendU64(dst, m.After)
}

// decodeResend decodes a resend request frame.
func decodeResend(frame []byte) (resend, error) {
	r := reader{b: frame}
	r.kind(kindResend)
	var m resend
	m.Downstream = r.str()
	m.After = r.u64()
	return m, r.done()
}

// SizeFetchBlob reports the exact frame size AppendFetchBlob will produce.
func SizeFetchBlob(m *fetchBlob) int { return 1 + sizeString(m.Slot) + 8 }

// AppendFetchBlob encodes a blob fetch request frame onto dst.
func AppendFetchBlob(dst []byte, m *fetchBlob) []byte {
	dst = appendU8(dst, byte(kindFetchBlob))
	dst = appendString(dst, m.Slot)
	return appendU64(dst, m.Version)
}

// decodeFetchBlob decodes a blob fetch request frame.
func decodeFetchBlob(frame []byte) (fetchBlob, error) {
	r := reader{b: frame}
	r.kind(kindFetchBlob)
	var m fetchBlob
	m.Slot = r.str()
	m.Version = r.u64()
	return m, r.done()
}

// SizeHello reports the exact frame size AppendHello will produce.
func SizeHello(h *Hello) int {
	return 1 + sizeString(string(h.ID)) + sizeString(h.Addr)
}

// AppendHello encodes a handshake frame onto dst.
func AppendHello(dst []byte, h *Hello) []byte {
	dst = appendU8(dst, byte(kindHello))
	dst = appendString(dst, string(h.ID))
	return appendString(dst, h.Addr)
}

// DecodeHello decodes a handshake frame.
func DecodeHello(frame []byte) (Hello, error) {
	r := reader{b: frame}
	r.kind(kindHello)
	var h Hello
	h.ID = simnet.NodeID(r.str())
	h.Addr = r.str()
	return h, r.done()
}

// SizeAssign reports the exact frame size AppendAssign will produce.
func SizeAssign(a *Assign) int {
	total := 1 + sizeString(string(a.Lead)) + 8 + 8 + 8 + 8 + 4 + 4
	for i := range a.Stages {
		s := &a.Stages[i]
		total += sizeString(s.Slot) + sizeString(s.Op) + sizeString(string(s.Host))
	}
	for i := range a.Peers {
		p := &a.Peers[i]
		total += sizeString(string(p.ID)) + sizeString(p.Addr)
	}
	return total
}

// AppendAssign encodes an assignment frame onto dst.
func AppendAssign(dst []byte, a *Assign) []byte {
	dst = appendU8(dst, byte(KindAssign))
	dst = appendString(dst, string(a.Lead))
	dst = appendI64(dst, a.Seed)
	dst = appendI64(dst, int64(a.Tuples))
	dst = appendI64(dst, int64(a.TokenEvery))
	dst = appendI64(dst, int64(a.SampleEvery))
	dst = appendU32(dst, uint32(len(a.Stages)))
	for i := range a.Stages {
		s := &a.Stages[i]
		dst = appendString(dst, s.Slot)
		dst = appendString(dst, s.Op)
		dst = appendString(dst, string(s.Host))
	}
	dst = appendU32(dst, uint32(len(a.Peers)))
	for i := range a.Peers {
		p := &a.Peers[i]
		dst = appendString(dst, string(p.ID))
		dst = appendString(dst, p.Addr)
	}
	return dst
}

// DecodeAssign decodes an assignment frame.
func DecodeAssign(frame []byte) (Assign, error) {
	r := reader{b: frame}
	r.kind(KindAssign)
	var a Assign
	a.Lead = simnet.NodeID(r.str())
	a.Seed = r.i64()
	a.Tuples = int(r.i64())
	a.TokenEvery = int(r.i64())
	a.SampleEvery = int(r.i64())
	if n := r.count(3 * 4); r.err == nil && n > 0 {
		a.Stages = make([]AssignStage, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			a.Stages = append(a.Stages, AssignStage{
				Slot: r.str(), Op: r.str(), Host: simnet.NodeID(r.str()),
			})
		}
	}
	if n := r.count(2 * 4); r.err == nil && n > 0 {
		a.Peers = make([]AssignPeer, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			a.Peers = append(a.Peers, AssignPeer{
				ID: simnet.NodeID(r.str()), Addr: r.str(),
			})
		}
	}
	return a, r.done()
}
