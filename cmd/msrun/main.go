// msrun runs one MobiStreams scenario — an application, a fault-tolerance
// scheme, an optional fault burst — and prints the region's report. It is
// the command-line front end to the same harness the benchmarks use.
//
// Usage:
//
//	msrun -app bcp -scheme ms -measure 120s
//	msrun -app sg -scheme dist-2 -fail 2
//	msrun -app bcp -scheme ms -depart 3 -speedup 400
//
// -http serves the region's registry live (/metrics carries its operator,
// edge, sink, batch and checkpoint families) and keeps serving after the
// report until the process is stopped; -sample N traces every Nth tuple and
// prints the waterfalls on stderr:
//
//	msrun -app bcp -scheme ms -sample 10 -http 127.0.0.1:9191
//
// With -listen or -join, msrun instead runs a transport region: the same
// deterministic pipeline over real TCP sockets, split across processes.
// The lead prints every checkpoint blob digest plus the sink digest, and
// -xregion sim prints the identical report from the simulated WiFi
// backend — byte-identical blobs mean the two outputs diff clean:
//
//	msrun -xregion sim -seed 42 -tuples 60 -tokenevery 10   # simnet backend
//	msrun -listen 127.0.0.1:7070 -workers 2 -seed 42        # socket lead
//	msrun -join 127.0.0.1:7070 -id w1                       # socket worker
//	msrun -join 127.0.0.1:7070 -id w2
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"mobistreams/internal/bench"
	"mobistreams/internal/ft"
	"mobistreams/internal/obs"
	"mobistreams/internal/simnet"
	"mobistreams/internal/xregion"
)

func main() {
	appName := flag.String("app", "bcp", "application: bcp|sg")
	schemeName := flag.String("scheme", "ms", "scheme: base|rep-2|local|dist-N|ms")
	measure := flag.Duration("measure", 2*time.Minute, "measurement window (simulated)")
	period := flag.Duration("period", time.Minute, "checkpoint period (simulated)")
	speedup := flag.Float64("speedup", 200, "simulated-to-wall clock ratio")
	failN := flag.Int("fail", 0, "phones to crash mid-window")
	departN := flag.Int("depart", 0, "phones to depart mid-window")
	phones := flag.Int("phones", 16, "region population (8 slots + spares)")
	channels := flag.Int("channels", 1, "WiFi channel/AP domain count")
	seed := flag.Int64("seed", 1, "workload seed")
	listen := flag.String("listen", "", "transport-region lead: listen for worker joins on this address")
	join := flag.String("join", "", "transport-region worker: join the lead at this address")
	nodeID := flag.String("id", "", "worker node ID (w1, w2, ...); required with -join")
	workers := flag.Int("workers", 2, "transport-region worker count")
	tuples := flag.Int("tuples", 60, "transport-region workload size")
	tokenEvery := flag.Int("tokenevery", 10, "transport-region checkpoint token interval (tuples)")
	xreg := flag.String("xregion", "", "run the transport region on this backend instead: sim")
	joinTimeout := flag.Duration("jointimeout", time.Minute, "transport-region lead: how long to wait for workers")
	sample := flag.Int("sample", 0, "trace every Nth tuple end to end (0 disables tracing); waterfalls go to stderr")
	httpAddr := flag.String("http", "", "serve live metrics/journal/traces/pprof on this address (with -app: until interrupted)")
	flag.Parse()

	if *join != "" || *listen != "" || *xreg != "" {
		runTransportRegion(*listen, *join, *nodeID, *xreg, xregion.Spec{
			Seed: *seed, Tuples: *tuples, TokenEvery: *tokenEvery, SampleEvery: *sample,
		}, *workers, *joinTimeout, *httpAddr)
		return
	}

	var app bench.App
	switch *appName {
	case "bcp":
		app = bench.BCP
	case "sg", "signalguru":
		app = bench.SG
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *appName)
		os.Exit(2)
	}
	scheme, err := ft.Parse(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The region records into the served registry, so /metrics carries its
	// sink, batch and checkpoint families while it runs.
	reg := serveObs(*httpAddr)
	if reg == nil && *sample > 0 {
		reg = obs.NewRegistry()
	}
	if reg != nil {
		reg.Tracer.SetSampleEvery(*sample)
	}

	out, err := bench.Run(bench.Scenario{
		App:              app,
		Scheme:           scheme,
		Phones:           *phones,
		Channels:         *channels,
		Speedup:          *speedup,
		CheckpointPeriod: *period,
		Measure:          *measure,
		FailCount:        *failN,
		DepartCount:      *departN,
		Seed:             *seed,
		Obs:              reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("app:          %s\n", app)
	fmt.Printf("scheme:       %s\n", scheme)
	fmt.Printf("window:       %v simulated\n", out.Window)
	fmt.Printf("outputs:      %d unique tuples (%.3f t/s)\n", out.Tuples, out.ThroughputTPS)
	fmt.Printf("latency:      mean %v, p95 %v\n", out.MeanLatency.Round(time.Millisecond), out.P95Latency.Round(time.Millisecond))
	fmt.Printf("data:         %.2f MB on WiFi\n", float64(out.DataBytes)/(1<<20))
	fmt.Printf("checkpoints:  %.2f MB network, %.2f MB preserved\n",
		float64(out.CheckpointNet)/(1<<20), float64(out.PreservedBytes)/(1<<20))
	fmt.Printf("replication:  %.2f MB network\n", float64(out.ReplicationNet)/(1<<20))
	fmt.Printf("recoveries:   %d (departures handled: %d)\n", out.Recoveries, out.Departures)
	fmt.Printf("duplicates:   %d suppressed at the sink\n", out.Duplicates)
	fmt.Printf("inbox drops:  %d best-effort deliveries lost to full inboxes\n", out.InboxDrops)
	fmt.Printf("transport:    %d redials, %d dead conns\n", out.Redials, out.DeadConns)
	if out.Channels > 1 {
		fmt.Printf("channels:     %d domains, %.1f%% of unicast bytes cross-channel\n",
			out.Channels, out.CrossChannelShare*100)
		for i, air := range out.ChannelAirtime {
			members := 0
			if i < len(out.ChannelMembers) {
				members = out.ChannelMembers[i]
			}
			fmt.Printf("  ch%-2d        %v airtime, %d phones\n", i, air.Round(time.Millisecond), members)
		}
	}
	if out.Dead {
		fmt.Println("region:       DEAD (bypassed by the controller)")
	}
	if reg != nil {
		for _, wf := range obs.Waterfalls(reg.Tracer.Spans()) {
			fmt.Fprint(os.Stderr, wf.Render())
		}
	}
	if *httpAddr != "" {
		// The run is over in well under a second at high speedups; keep
		// its final numbers scrapeable until the process is stopped.
		fmt.Fprintln(os.Stderr, "run complete; still serving until interrupted")
		select {}
	}
}

// serveObs starts the live export endpoint on addr and returns the
// registry it serves, or nil when addr is empty.
func serveObs(addr string) *obs.Registry {
	if addr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	actual, err := obs.Serve(addr, reg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", actual)
	return reg
}

// runTransportRegion runs the deterministic pipeline over the transport
// layer: as a socket worker (-join), a socket lead (-listen), or entirely
// on the simulated WiFi (-xregion sim). Lead and sim print the identical
// deterministic report, so `diff` across backends proves blob parity.
func runTransportRegion(listen, join, id, backend string, spec xregion.Spec, workers int, timeout time.Duration, httpAddr string) {
	// The export endpoint comes up before the run so it can be scraped
	// while the region is streaming; span waterfalls land on it (and on
	// stderr) once the run completes.
	reg := serveObs(httpAddr)
	switch {
	case join != "":
		if id == "" {
			fmt.Fprintln(os.Stderr, "-join requires -id (w1, w2, ...)")
			os.Exit(2)
		}
		if listen == "" {
			listen = "127.0.0.1:0"
		}
		if err := xregion.RunWorkerTCP(simnet.NodeID(id), listen, join); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "worker %s done\n", id)
	case listen != "":
		s, err := xregion.ListenLead(listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if reg != nil {
			// Dead connections and redials land in the live journal.
			s.SetJournal(reg.Journal)
		}
		res, err := xregion.RunLeadOn(s, spec, workers, timeout)
		s.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printRegionResult(spec, res, reg)
	case backend == "sim":
		res, err := xregion.RunSim(spec, workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printRegionResult(spec, res, reg)
	default:
		fmt.Fprintf(os.Stderr, "unknown -xregion backend %q (want: sim)\n", backend)
		os.Exit(2)
	}
}

// printRegionResult prints the run's deterministic fingerprint: every
// checkpoint blob's digest in sorted key order, the sink stream digest,
// and — when tracing was sampled — each trace's timing-free span
// structure. Output is backend-independent by construction; per-hop
// latencies and transport health, which are not, go to stderr.
func printRegionResult(spec xregion.Spec, res *xregion.Result, reg *obs.Registry) {
	fmt.Printf("region:      %d tuples, token every %d, seed %d\n", spec.Tuples, spec.TokenEvery, spec.Seed)
	keys := make([]string, 0, len(res.Blobs))
	for k := range res.Blobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sum := sha256.Sum256(res.Blobs[k])
		fmt.Printf("blob %-8s %x %dB\n", k, sum[:8], len(res.Blobs[k]))
	}
	fmt.Printf("sink outputs: %d\n", res.SinkOuts)
	fmt.Printf("sink digest:  %s\n", res.SinkDigest)
	for _, w := range res.Traces {
		fmt.Printf("trace %-6d %s\n", w.Trace, w.Structure())
	}
	for _, w := range res.Traces {
		fmt.Fprint(os.Stderr, w.Render())
	}
	fmt.Fprintf(os.Stderr, "transport: redials=%d deadconns=%d\n", res.Redials, res.DeadConns)
	if reg != nil {
		var spans []obs.Span
		for _, w := range res.Traces {
			for _, h := range w.Hops {
				spans = append(spans, h.Span)
			}
		}
		reg.Tracer.Absorb(spans)
	}
}
