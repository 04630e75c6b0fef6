// Command bench is this repository's benchmark: four workloads, seven
// end-to-end metrics and a per-layer ledger from a traced run. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	bench --workload W --seed S --seconds T --trace 0|1
//	bench --list
//	bench --sets N [--seconds T]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// result is one run's outcome. The last line of standard output is its JSON
// form with exactly the keys correct, attempted, failed and metrics.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	e2e       map[string]float64
	notes     []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encode renders the result line: the end-to-end metrics for an untraced
// run, the per-layer ledger for a traced one.
func (r result) encode(l ledger) resultJSON {
	out := resultJSON{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]metricValue)}
	if l == nil {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = metricValue{r.e2e[m.Name], m.Unit}
		}
		return out
	}
	for _, m := range perLayer {
		out.Metrics[m.Name] = metricValue{l[m.Name], m.Unit}
	}
	return out
}

// runOne executes one workload run in this process. dropID is a test hook
// (0 in real runs): that tuple is discarded at the sink, which must surface
// as correct=false.
func runOne(name string, seed int64, seconds int, traced bool, dropID uint64) (result, ledger, *recorder, error) {
	var rec *recorder
	var l ledger
	if traced {
		rec, l = newRecorder(), make(ledger)
	}
	var res result
	var err error
	switch name {
	case "region-relay":
		res, err = runHost(relayWorkload(), seed, seconds, rec, l, dropID)
	case "region-keyed-ckpt":
		res, err = runHost(keyedWorkload(), seed, seconds, rec, l, dropID)
	case "socket-relay":
		res, err = runHost(socketWorkload(), seed, seconds, rec, l, dropID)
	case "paper-bcp-fault":
		res, err = runBCP(seed, seconds, rec, l, dropID)
	default:
		err = fmt.Errorf("unknown workload %q (see --list)", name)
	}
	return res, l, rec, err
}

func outDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "out"
	}
	// The binary lives in benchmark/.build; results go beside it in out/.
	return filepath.Join(filepath.Dir(filepath.Dir(exe)), "out")
}

func list() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-20s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-40s %-6s better=%-6s bound=%.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Printf("  %-40s %-6s better=%s\n", m.Name, m.Unit, m.Better)
	}
}

// fail reports why there is no result and exits 1: the run is over,
// whatever is still running dies with the process.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "workload name (see --list)")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger and writes spans")
	sets := flag.Int("sets", 0, "self-check: run every workload N times on consecutive seeds, twice, and compare")
	showList := flag.Bool("list", false, "print every workload and metric by name with its unit")
	flag.Parse()

	if *showList {
		list()
		return
	}
	if *seconds < 2 {
		fail("--seconds must be at least 2")
	}
	if *sets > 0 {
		os.Exit(selfCheck(*sets, *seed, *seconds))
	}
	if *workload == "" {
		fail("--workload is required (see --list)")
	}

	// The watchdog never returns control to a run that is still going: it
	// reports and exits the process.
	watchdog := time.AfterFunc(2*time.Duration(*seconds)*time.Second+20*time.Second, func() {
		fmt.Println(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // where it is stuck
		fail("watchdog: run exceeded twice its length")
	})
	defer watchdog.Stop()

	res, l, rec, err := runOne(*workload, *seed, *seconds, *trace == 1, 0)
	if err != nil {
		fail("%v", err)
	}
	for _, n := range res.notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	if rec != nil {
		// For orientation only: end-to-end numbers are compared from
		// untraced runs.
		if e2e, err := json.Marshal(res.encode(nil).Metrics); err == nil {
			fmt.Fprintln(os.Stderr, "traced run's end-to-end metrics:", string(e2e))
		}
		path := filepath.Join(outDir(), fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := rec.write(path); err != nil {
			fail("write spans: %v", err)
		}
		fmt.Fprintln(os.Stderr, "spans:", path)
		self := rec.selfTime()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "self time %-14s %10.3f ms\n", n, float64(self[n])/1e6)
		}
	}
	if kids := childProcesses(); len(kids) > 0 {
		fail("child processes left running: %v", kids)
	}
	line, err := json.Marshal(res.encode(l))
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
	os.Exit(0)
}
