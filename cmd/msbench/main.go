// msbench runs the experiments of the table bench.Experiments on the
// simulated phone platform: the paper's tables and figures, and the
// experiments added since. Each prints the rows/series it reports.
//
// Usage:
//
//	msbench -exp all          # every experiment below, in this order
//	msbench -exp fig6         # multi-phase broadcast walk-through (paper Fig. 6)
//	msbench -exp fig8         # steady-state throughput and latency per scheme (paper Fig. 8)
//	msbench -exp fig9         # failure/departure sweep up to -maxk simultaneous faults (paper Fig. 9)
//	msbench -exp fig10        # preservation and checkpoint/replication data per scheme (paper Fig. 10)
//	msbench -exp table1       # MobiStreams vs server-based DSPS (paper Table I)
//	msbench -exp churn        # reactive recovery vs placement planner under phone churn, one channel
//	msbench -exp checkpoint   # full-blob vs incremental-async checkpoint pipeline
//	msbench -exp scale        # region size × WiFi channels throughput sweep
//	msbench -exp elastic      # static vs elastic keyed parallelism under a moving hotspot
//	msbench -exp placement    # reactive recovery vs placement planner, four channels
//
// -exp takes a comma-separated list. -seed reaches every experiment;
// -speedup, -apps and -maxk shape the paper's figures only (the others are
// fixed scenarios). -out writes the rows of every experiment that has them
// as one JSON object keyed by experiment name.
//
// -compare is the CI benchmark-regression gate (see runCompare) over the
// -results files and the committed -baseline. -cpuprofile / -memprofile
// write pprof profiles so hot-path regressions caught by the gate are
// diagnosable straight from CI artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mobistreams/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments, or all: "+strings.Join(names(), "|"))
	seed := flag.Int64("seed", 1, "workload and loss seed")
	speedup := flag.Float64("speedup", 200, "simulated-to-wall clock ratio of the paper's figures (fig8|fig9|fig10|table1)")
	apps := flag.String("apps", "bcp,sg", "comma-separated apps for fig8|fig9|fig10: bcp,sg")
	maxK := flag.Int("maxk", 8, "maximum simultaneous failures/departures for fig9")
	out := flag.String("out", "", "write the experiments' rows as one JSON object keyed by experiment name to this path")
	compare := flag.Bool("compare", false, "benchmark-regression gate: check -results against the table's gate rows and -baseline, exit non-zero on a failure")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline metrics for -compare")
	resultsPaths := flag.String("results", "BENCH_results.json", "comma-separated results files for -compare, merged by experiment name")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	flag.Parse()

	if *compare {
		if err := runCompare(*baselinePath, strings.Split(*resultsPaths, ","), os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark regression gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	exps, appList, err := resolve(*exp, *apps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if err := run(exps, bench.Params{Seed: *seed, Speedup: *speedup, Apps: appList, MaxK: *maxK}, *out); err != nil {
		fmt.Fprintf(os.Stderr, "msbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the experiments in order and writes the rows they returned to
// outPath, if one is given.
func run(exps []bench.Experiment, p bench.Params, outPath string) error {
	results := make(map[string]any)
	for _, e := range exps {
		start := time.Now()
		rows, err := e.Run(p, os.Stdout)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.Name, err)
		}
		if rows != nil {
			results[e.Name] = rows
		}
		fmt.Printf("(%s took %v of wall time)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if outPath == "" {
		return nil
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := bench.WriteResults(f, results); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// names lists the table's experiment names in order.
func names() []string {
	var out []string
	for _, e := range bench.Experiments {
		out = append(out, e.Name)
	}
	return out
}

// resolve turns the -exp and -apps values into table entries and apps. A
// name the table (or the app list) does not have is an error, not an empty
// run.
func resolve(exp, apps string) ([]bench.Experiment, []bench.App, error) {
	var exps []bench.Experiment
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if name == "all" {
			exps = append(exps, bench.Experiments...)
			continue
		}
		found := false
		for _, e := range bench.Experiments {
			if e.Name == name {
				exps, found = append(exps, e), true
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("unknown experiment %q (have all|%s)", name, strings.Join(names(), "|"))
		}
	}
	var appList []bench.App
	for _, a := range strings.Split(apps, ",") {
		switch strings.TrimSpace(a) {
		case "bcp":
			appList = append(appList, bench.BCP)
		case "sg", "signalguru":
			appList = append(appList, bench.SG)
		default:
			return nil, nil, fmt.Errorf("unknown app %q (have bcp|sg)", a)
		}
	}
	return exps, appList, nil
}
