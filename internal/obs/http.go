package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// exportQuantiles are the quantiles rendered per histogram on /metrics.
var exportQuantiles = []float64{50, 95, 99}

// handler serves the registry live over HTTP:
//
//	/metrics       Prometheus text: histograms as *_count/_sum/quantile
//	               gauges plus any extra counters
//	/journal       the lifecycle event journal as JSON Lines
//	/traces        reconstructed waterfalls, human-readable
//	/debug/pprof/  the standard runtime profiles
//
// extra, if non-nil, is called per /metrics scrape for counters owned
// outside the registry (transport redials, sink totals, ...).
func handler(reg *Registry, extra func() map[string]float64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeProm(w, reg, extra)
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if reg != nil {
			_ = reg.Journal.writeJSONL(w)
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if reg == nil {
			return
		}
		for _, wf := range Waterfalls(reg.Tracer.Spans()) {
			fmt.Fprint(w, wf.Render())
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// promName sanitises a label value: Prometheus label values are free-form
// UTF-8, but keep quotes and backslashes out of the unescaped writer.
func promLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `_`)
	return strings.ReplaceAll(s, `"`, `_`)
}

func writeHistFamily(w http.ResponseWriter, f Family, views []histogramView) {
	fmt.Fprintf(w, "# TYPE %s summary\n", f.Name)
	for _, v := range views {
		// An unlabelled family's series carry no label set, and its
		// quantile lines only the quantile label.
		set, qset := "", "{"
		if f.Label != "" {
			l := fmt.Sprintf("%s=%q", f.Label, promLabel(v.Name))
			set, qset = "{"+l+"}", "{"+l+","
		}
		fmt.Fprintf(w, "%s_count%s %d\n", f.Name, set, v.Hist.Count())
		fmt.Fprintf(w, "%s_sum%s %d\n", f.Name, set, v.Hist.Sum())
		fmt.Fprintf(w, "%s_max%s %d\n", f.Name, set, v.Hist.Max())
		for _, q := range exportQuantiles {
			fmt.Fprintf(w, "%s%squantile=\"%g\"} %d\n", f.Name, qset, q/100, v.Hist.Percentile(q))
		}
	}
}

func writeProm(w http.ResponseWriter, reg *Registry, extra func() map[string]float64) {
	fmt.Fprintln(w, "# TYPE ms_up gauge")
	fmt.Fprintln(w, "ms_up 1")
	if reg != nil {
		for _, f := range reg.families() {
			writeHistFamily(w, f, reg.view(f))
		}
		fmt.Fprintln(w, "# TYPE ms_trace_spans gauge")
		fmt.Fprintf(w, "ms_trace_spans %d\n", len(reg.Tracer.Spans()))
		fmt.Fprintf(w, "ms_trace_span_drops %d\n", reg.Tracer.Drops())
		fmt.Fprintln(w, "# TYPE ms_journal_events_total counter")
		fmt.Fprintf(w, "ms_journal_events_total %d\n", reg.Journal.emitted())
	}
	if extra != nil {
		m := extra()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s %g\n", k, m[k])
		}
	}
}

// Serve starts the export HTTP server on addr in a background goroutine
// and returns the address it is listening on. Used by msrun -http.
func Serve(addr string, reg *Registry, extra func() map[string]float64) (string, error) {
	srv := &http.Server{Addr: addr, Handler: handler(reg, extra)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
