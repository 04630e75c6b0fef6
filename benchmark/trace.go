package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"mobistreams/internal/obs"
)

// ledger is the per-layer metric sheet a traced run fills in.
type ledger map[string]float64

// span is one recorded interval, in harness nanoseconds. Parent indexes the
// spans slice (-1 for the root); spans of one sampled tuple or frame share
// Trace.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  uint64 `json:"trace,omitempty"`
}

// maxSpans bounds the in-memory span list (and the file written at exit).
const maxSpans = 400000

// recorder keeps the benchmark's own spans in memory. A nil recorder (an
// untraced run) ignores every call.
type recorder struct {
	mu    sync.Mutex
	spans []span
	// phase is the index of the phase span calls into layers hang under;
	// phases lists every phase span opened so far.
	phase  int
	phases []int
}

func newRecorder() *recorder {
	r := &recorder{}
	r.spans = append(r.spans, span{Name: "run", Start: 0, Parent: -1})
	return r
}

// add records a finished span and returns its index (-1 when dropped).
func (r *recorder) add(name string, start, end int64, parent int, trace uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Trace: trace})
	return len(r.spans) - 1
}

// call records one benchmark call into a layer under the current phase.
func (r *recorder) call(name string, start int64, trace uint64) {
	if r == nil {
		return
	}
	r.add(name, start, now(), r.currentPhase(), trace)
}

func (r *recorder) currentPhase() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// beginPhase opens a child of the root span and makes it current.
func (r *recorder) beginPhase(name string) int {
	if r == nil {
		return -1
	}
	i := r.add(name, now(), 0, 0, 0)
	r.mu.Lock()
	r.phase = i
	r.phases = append(r.phases, i)
	r.mu.Unlock()
	return i
}

func (r *recorder) endPhase(i int) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = now()
	r.phase = 0
	r.mu.Unlock()
}

// phaseAt returns the phase span covering harness time t (the root if none).
func (r *recorder) phaseAt(t int64) int {
	for _, i := range r.phases {
		if s := r.spans[i]; t >= s.Start && (s.End == 0 || t <= s.End) {
			return i
		}
	}
	return 0
}

// write closes the root span and writes every span as a JSON array.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[0].End = now()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime returns, per span name, the summed duration minus the part of
// each span's interval that its direct children cover (children may
// overlap one another, so it is their union that counts).
func (r *recorder) selfTime() map[string]int64 {
	out := make(map[string]int64)
	if r == nil {
		return out
	}
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i, s := range r.spans {
		ch := kids[i]
		sortSpans(ch)
		var covered, hi int64 = 0, s.Start
		for _, c := range ch {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// spanDrain empties the program's bounded tracer buffer on a short period
// so a long run does not lose sampled tuples to its 16k-span cap.
type spanDrain struct {
	tr   *obs.Tracer
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	spans []obs.Span
	drops uint64
}

func startSpanDrain(tr *obs.Tracer) *spanDrain {
	d := &spanDrain{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				d.pull()
			case <-d.stop:
				d.pull()
				return
			}
		}
	}()
	return d
}

func (d *spanDrain) pull() {
	got := d.tr.Spans()
	drops := d.tr.Drops()
	d.tr.ResetSpans()
	d.mu.Lock()
	if len(d.spans) < 4*maxSpans {
		d.spans = append(d.spans, got...)
	}
	d.drops += drops
	d.mu.Unlock()
}

// close stops the drain goroutine and returns everything collected.
func (d *spanDrain) close() ([]obs.Span, uint64) {
	close(d.stop)
	<-d.done
	return d.spans, d.drops
}

// hopCategory names the layer a span-to-span gap belongs to, by the kind
// of the span that ends it.
func hopCategory(k obs.SpanKind) string {
	switch k {
	case obs.SpanDequeue, obs.SpanPark:
		return "queue_wait"
	case obs.SpanSend:
		return "batch_hold"
	case obs.SpanRecv:
		return "net"
	default: // op start, emit, sink: time inside the operator chain
		return "op"
	}
}

var hopNames = []string{"queue_wait", "op", "batch_hold", "net"}

// tupleTrace is one sampled tuple's journey: per-category time and the
// first/last span times, all on the program's clock (ns).
type tupleTrace struct {
	id          uint64
	first, last int64
	hops        map[string]int64
	complete    bool // has both an ingest and a sink span
	spans       []obs.Span
}

// tupleTraces groups program spans by trace id and splits each journey
// into the four hop categories. Gaps telescope: the categories of a
// complete trace sum exactly to last-first.
func tupleTraces(spans []obs.Span) []tupleTrace {
	by := make(map[uint64][]obs.Span)
	for _, s := range spans {
		by[s.Trace] = append(by[s.Trace], s)
	}
	ids := make([]uint64, 0, len(by))
	for id := range by {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]tupleTrace, 0, len(ids))
	for _, id := range ids {
		ss := by[id]
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].Seq < ss[j].Seq })
		tt := tupleTrace{id: id, first: ss[0].At, last: ss[len(ss)-1].At, hops: make(map[string]int64, 4), spans: ss}
		var ingest, sink bool
		for i, s := range ss {
			ingest = ingest || s.Kind == obs.SpanIngest
			sink = sink || s.Kind == obs.SpanSink
			if i > 0 {
				tt.hops[hopCategory(s.Kind)] += s.At - ss[i-1].At
			}
		}
		tt.complete = ingest && sink
		out = append(out, tt)
	}
	return out
}

// closure fills the trace.* rows from sampled journeys on the program's
// clock. harness returns the end-to-end latency the harness measured for a
// tuple (same clock units) and how late the generator admitted it (0 where
// latency counts from admission), or false for tuples outside the phase
// being closed. The hop categories telescope to last-first, so with the
// generator's lateness added the numerator covers due time -> sink span.
func closure(l ledger, traces []tupleTrace, harness func(tt tupleTrace) (latNs, lateNs int64, ok bool)) {
	cat := make(map[string][]int64)
	var sumHops, sumLat float64
	for _, tt := range traces {
		if !tt.complete {
			continue
		}
		lat, late, ok := harness(tt)
		if !ok || lat <= 0 {
			continue
		}
		for _, name := range hopNames {
			cat[name] = append(cat[name], tt.hops[name])
		}
		sumHops += float64(late + tt.last - tt.first)
		sumLat += float64(lat)
	}
	for _, name := range hopNames {
		v := cat[name]
		slices.Sort(v)
		l["trace."+name+"_us_p50"] = float64(percentile(v, 50)) / 1e3
	}
	if sumLat > 0 {
		// Σ hop means ÷ mean latency of the same tuples.
		l["trace.closure_ratio"] = sumHops / sumLat
	}
}

func sortSpans(ss []span) { sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start }) }
