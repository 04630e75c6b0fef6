package obs

import (
	"sort"
	"sync"
)

// Family names one histogram family: its exported metric name and the
// label its members are keyed by. An unlabelled family ("" label) holds one
// histogram, under the empty key.
type Family struct {
	Name, Label string
}

// The families the runtime records into. A registry serves one region, so
// region-wide families need no region label.
var (
	// OpLatency is operator Process latency, ns: one dequeued item in 8 per
	// queue with weight 8, and every traced item and timer firing.
	OpLatency = Family{"ms_op_latency_ns", "op"}
	// EdgeWait is a dequeued tuple's queue wait, ns, sampled like OpLatency.
	EdgeWait = Family{"ms_edge_wait_ns", "edge"}
	// EdgeDepth is the receiving queue's depth once per delivery, items;
	// an external queue observes one ingest in eight with weight 8.
	EdgeDepth = Family{"ms_edge_depth", "edge"}
	// SinkLatency is the end-to-end latency of every deduplicated sink
	// result, ingest to publication, ns. Its count is the region's output
	// count since the measurement window opened.
	SinkLatency = Family{"ms_sink_latency_ns", ""}
	// BatchMsgs is the number of stream messages per flushed network batch.
	BatchMsgs = Family{"ms_batch_msgs", ""}
	// CkptPause is the executor's stop-the-world pause per checkpoint, ns.
	CkptPause = Family{"ms_ckpt_pause_ns", "slot"}
	// CkptDeltaBlob and CkptFullBlob are the bytes each checkpoint blob put
	// on flash and network, split by whether it travelled as a delta link or
	// a full base blob.
	CkptDeltaBlob = Family{"ms_ckpt_delta_blob_bytes", "slot"}
	CkptFullBlob  = Family{"ms_ckpt_full_blob_bytes", "slot"}
	// CkptState is the full-state bytes each checkpoint stands for (a delta
	// link's full size is its base's plus the patch).
	CkptState = Family{"ms_ckpt_state_bytes", "slot"}
)

// Registry owns a region's observability state: the histogram families
// above, the tuple tracer, and the lifecycle journal. Histogram lookups
// happen at pipeline compile time or per rare event (a checkpoint); the
// compiled hot path holds resolved *Histogram pointers and never touches
// the registry map.
type Registry struct {
	Tracer  *Tracer
	Journal *Journal

	mu    sync.Mutex
	hists map[Family]map[string]*Histogram
}

// NewRegistry returns a registry with tracing off and an empty journal.
func NewRegistry() *Registry {
	return &Registry{
		Tracer:  NewTracer(0),
		Journal: NewJournal(0),
		hists:   make(map[Family]map[string]*Histogram),
	}
}

// Hist returns (creating on first use) the histogram keyed key in family f.
// Nil-safe: a nil registry yields a nil histogram, which the instrumented
// sites treat as "not instrumented".
func (r *Registry) Hist(f Family, key string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.hists[f]
	if m == nil {
		m = make(map[string]*Histogram)
		r.hists[f] = m
	}
	h := m[key]
	if h == nil {
		h = &Histogram{}
		m[key] = h
	}
	return h
}

// histogramView is one named histogram in a registry snapshot.
type histogramView struct {
	Name string
	Hist *Histogram
}

// view returns a family's histograms in key order.
func (r *Registry) view(f Family) []histogramView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]histogramView, 0, len(r.hists[f]))
	for k, h := range r.hists[f] {
		out = append(out, histogramView{Name: k, Hist: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merged returns one histogram holding every sample of a family — exactly
// what observing them all into one histogram would hold (see Merge).
func (r *Registry) Merged(f Family) *Histogram {
	var h Histogram
	for _, v := range r.view(f) {
		h.Merge(v.Hist)
	}
	return &h
}

// Reset empties every histogram of the given families (see Histogram.Reset
// for what that means under concurrent observers).
func (r *Registry) Reset(fs ...Family) {
	for _, f := range fs {
		for _, v := range r.view(f) {
			v.Hist.Reset()
		}
	}
}

// families returns the families holding at least one histogram, in name
// order — what /metrics exports.
func (r *Registry) families() []Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.hists))
	for f := range r.hists {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ops, Waits and Depths return the operator-latency, edge-wait and
// edge-depth histograms in name order.
func (r *Registry) Ops() []histogramView    { return r.view(OpLatency) }
func (r *Registry) Waits() []histogramView  { return r.view(EdgeWait) }
func (r *Registry) Depths() []histogramView { return r.view(EdgeDepth) }
