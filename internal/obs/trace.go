package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SpanCtx is the compact trace context carried on stream frames: a trace
// ID plus the next span sequence number. The zero value means "untraced";
// every downstream span site gates on ID != 0 with a plain compare, so
// unsampled tuples pay nothing beyond that branch.
type SpanCtx struct {
	ID  uint64
	Seq uint32
}

// SpanKind labels where in the pipeline a span was recorded.
type SpanKind uint8

const (
	_           SpanKind = iota
	SpanIngest           // tuple entered the system at a source
	SpanRecv             // frame arrived from the network
	SpanPark             // ordered queue parked an out-of-order arrival
	SpanDequeue          // executor dequeued the tuple
	SpanOp               // operator Process started
	SpanEmit             // operator emitted a downstream tuple
	SpanSend             // batch flushed / frame handed to the network
	SpanSink             // tuple reached a sink
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"invalid", "ingest", "recv", "park", "deq", "op", "emit", "send", "sink",
}

func (k SpanKind) String() string {
	if k < numSpanKinds {
		return spanKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span is one recorded hop of a sampled tuple. At is in nanoseconds on
// the recording process's clock; cross-process deltas are approximate,
// same-process deltas are exact. The (Trace, Seq) pair totally orders a
// trace's spans regardless of which process recorded them.
type Span struct {
	Trace uint64
	Seq   uint32
	Kind  SpanKind
	Node  string
	Slot  string
	Op    string
	At    int64
}

// defaultSpanCap bounds the tracer's span buffer; once full, new spans
// are counted as drops rather than grown without bound.
const defaultSpanCap = 1 << 14

// Tracer decides which tuples are sampled and buffers their spans.
// The sampling decision is one atomic load (zero when tracing is off);
// the span buffer mutex is touched only for sampled tuples.
type Tracer struct {
	every uint64 // atomic; sample the tuple when seq%every == 0; 0 = off

	mu    sync.Mutex
	spans []Span
	cap   int
	drops uint64
}

// NewTracer returns a tracer sampling every n-th tuple (0 = off).
func NewTracer(n int) *Tracer {
	t := &Tracer{cap: defaultSpanCap}
	t.SetSampleEvery(n)
	return t
}

// SetSampleEvery changes the sampling interval (0 disables tracing).
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	atomic.StoreUint64(&t.every, uint64(n))
}

// SampleEvery returns the current interval (0 = off).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(atomic.LoadUint64(&t.every))
}

// Sample decides whether the tuple with the given source sequence number
// is traced. Deriving the trace ID from the tuple's own sequence keeps
// trace identity deterministic across transport backends. The fast path
// (tracing off) is exactly one atomic load.
func (t *Tracer) Sample(seq uint64) (SpanCtx, bool) {
	if t == nil {
		return SpanCtx{}, false
	}
	every := atomic.LoadUint64(&t.every)
	if every == 0 || seq%every != 0 {
		return SpanCtx{}, false
	}
	// Trace IDs are seq+1 so that seq 0 still yields a non-zero —
	// i.e. traced — context.
	return SpanCtx{ID: seq + 1}, true
}

// Record appends a span for the traced tuple and advances its span
// sequence. Callers gate on tc.ID != 0 before calling.
func (t *Tracer) Record(tc *SpanCtx, kind SpanKind, node, slot, op string, at int64) {
	if t == nil || tc.ID == 0 {
		return
	}
	s := Span{Trace: tc.ID, Seq: tc.Seq, Kind: kind, Node: node, Slot: slot, Op: op, At: at}
	tc.Seq++
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.drops++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Absorb merges spans recorded elsewhere (another process's tracer,
// shipped over the wire) into this tracer's buffer.
func (t *Tracer) Absorb(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		if len(t.spans) >= t.cap {
			t.drops++
			continue
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the buffered spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Drops reports spans discarded because the buffer was full.
func (t *Tracer) Drops() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// ResetSpans clears the span buffer (sampling interval unchanged).
func (t *Tracer) ResetSpans() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.drops = 0
	t.mu.Unlock()
}

// hop is one step of a reconstructed waterfall: the span plus the time
// elapsed since the previous span of the same trace (0 for the first).
type hop struct {
	Span
	Delta int64
}

// Waterfall is one traced tuple's end-to-end journey in span order.
type Waterfall struct {
	Trace uint64
	Hops  []hop
}

// Waterfalls groups spans by trace ID and orders each trace by span
// sequence, turning the flat span buffer into per-tuple latency
// waterfalls. Traces are returned in ascending ID order.
func Waterfalls(spans []Span) []Waterfall {
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Waterfall, 0, len(ids))
	for _, id := range ids {
		ss := byTrace[id]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Seq < ss[j].Seq })
		w := Waterfall{Trace: id, Hops: make([]hop, len(ss))}
		for i, s := range ss {
			h := hop{Span: s}
			if i > 0 && ss[i-1].Node == s.Node {
				h.Delta = s.At - ss[i-1].At
			}
			w.Hops[i] = h
		}
		out = append(out, w)
	}
	return out
}

// Structure renders the waterfall's span sequence without any timing:
// "ingest@s0 op@s0/src emit@s0 ...". Two runs that routed a tuple the
// same way produce byte-identical structure strings, whatever the
// backend or wall-clock timing — this is what the cross-backend parity
// diff compares.
func (w Waterfall) Structure() string {
	var b strings.Builder
	for i, h := range w.Hops {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(h.Kind.String())
		b.WriteByte('@')
		b.WriteString(h.Slot)
		if h.Op != "" {
			b.WriteByte('/')
			b.WriteString(h.Op)
		}
	}
	return b.String()
}

// Render prints the waterfall with per-hop deltas (nanoseconds on each
// recording process's clock) — the human-readable latency view.
func (w Waterfall) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d:\n", w.Trace)
	for _, h := range w.Hops {
		fmt.Fprintf(&b, "  %-6s node=%-8s slot=%-6s op=%-10s +%dns\n",
			h.Kind, h.Node, h.Slot, h.Op, h.Delta)
	}
	return b.String()
}
