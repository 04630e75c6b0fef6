// msbench regenerates the paper's tables and figures on the simulated
// phone platform. Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records a reference run against the paper's
// numbers.
//
// Usage:
//
//	msbench -exp all            # every experiment
//	msbench -exp fig8           # steady-state scheme comparison
//	msbench -exp fig9 -maxk 8   # failure/departure sweep
//	msbench -exp fig10          # preservation / checkpoint data
//	msbench -exp table1         # MobiStreams vs server-based DSPS
//	msbench -exp fig6           # broadcast walk-through
//	msbench -exp churn          # reactive recovery vs placement planner, one channel
//	msbench -exp checkpoint     # full-blob vs incremental-async pipeline
//	msbench -exp scale          # region size × WiFi channels throughput sweep
//	msbench -exp emit           # emit-context contract vs legacy []Out adapter
//	msbench -exp wire           # wire codec encode/decode cost
//	msbench -exp elastic        # static vs elastic keyed parallelism, moving hotspot
//	msbench -exp federation     # control fan-out vs region count, gossip vs unicast
//	msbench -exp placement      # reactive recovery vs placement planner, four channels
//
// -churnout / -ckptout / -scaleout / -emitout / -wireout / -elasticout /
// -fedout / -placeout write the churn, checkpoint, scale, emit, wire,
// elastic, federation and placement comparisons as machine-readable JSON
// (BENCH_scheduler.json / BENCH_checkpoint.json / BENCH_scale.json /
// BENCH_emit.json / BENCH_wire.json / BENCH_elastic.json /
// BENCH_federation.json / BENCH_placement.json in CI) alongside the printed
// tables.
//
// -compare is the CI benchmark-regression gate: it reads the committed
// baseline (BENCH_baseline.json) plus the fresh churn/checkpoint/scale/
// emit/wire/elastic/federation/placement JSON and exits non-zero when tuple
// loss, checkpoint pause, largest-region throughput, the elastic run's
// hotspot p99, the federation sweep's busiest-node control bytes per phone,
// or the placement planner's tuple loss relative to the reactive arm
// regressed more than 20% against the baseline, when the emit-context
// path or the wire encode path allocates per operation (both pinned at 0),
// when the federation sweep leaks a duplicate cross-region output
// (pinned at 0), or when the placement planner stops beating the reactive
// arm on cross-channel airtime share.
//
// -cpuprofile / -memprofile write pprof profiles so hot-path regressions
// caught by the gate are diagnosable straight from CI artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mobistreams/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig6|fig8|fig9|fig10|churn|checkpoint|scale|emit|wire|obs|elastic|federation|placement|all")
	maxK := flag.Int("maxk", 8, "maximum simultaneous failures/departures for fig9")
	churnOut := flag.String("churnout", "", "write churn comparison JSON to this path")
	ckptOut := flag.String("ckptout", "", "write checkpoint comparison JSON to this path")
	scaleOut := flag.String("scaleout", "", "write scale sweep JSON to this path")
	emitOut := flag.String("emitout", "", "write emit-path comparison JSON to this path")
	emitIters := flag.Int("emititers", 200000, "tuples per emit-path measurement")
	wireOut := flag.String("wireout", "", "write wire-codec comparison JSON to this path")
	wireIters := flag.Int("wireiters", 200000, "frames per wire-codec measurement")
	obsOut := flag.String("obsout", "", "write observability-overhead JSON to this path")
	obsIters := flag.Int("obsiters", 200000, "tuples per observability-overhead measurement")
	elasticOut := flag.String("elasticout", "", "write elastic-parallelism comparison JSON to this path")
	fedOut := flag.String("fedout", "", "write federation fan-out sweep JSON to this path")
	placeOut := flag.String("placeout", "", "write placement planner comparison JSON to this path")
	scaleMax := flag.Int("scalemax", 64, "largest region size for the scale sweep (8..128)")
	scaleChannels := flag.String("scalechannels", "1,4", "comma-separated WiFi channel counts for the scale sweep")
	seed := flag.Int64("seed", 1, "workload and loss seed")
	speedup := flag.Float64("speedup", 200, "simulated-to-wall clock ratio")
	apps := flag.String("apps", "bcp,sg", "comma-separated apps: bcp,sg")
	compare := flag.Bool("compare", false, "benchmark-regression gate: compare fresh results to the baseline and exit non-zero on regression")
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline metrics for -compare")
	churnJSON := flag.String("churnjson", "BENCH_scheduler.json", "fresh churn results for -compare")
	ckptJSON := flag.String("ckptjson", "BENCH_checkpoint.json", "fresh checkpoint results for -compare")
	scaleJSON := flag.String("scalejson", "BENCH_scale.json", "fresh scale results for -compare")
	emitJSON := flag.String("emitjson", "BENCH_emit.json", "fresh emit-path results for -compare")
	wireJSON := flag.String("wirejson", "BENCH_wire.json", "fresh wire-codec results for -compare")
	obsJSON := flag.String("obsjson", "BENCH_obs.json", "fresh observability-overhead results for -compare")
	elasticJSON := flag.String("elasticjson", "BENCH_elastic.json", "fresh elastic-parallelism results for -compare")
	fedJSON := flag.String("fedjson", "BENCH_federation.json", "fresh federation fan-out results for -compare")
	placeJSON := flag.String("placejson", "BENCH_placement.json", "fresh placement planner results for -compare")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path at exit")
	flag.Parse()

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

	if *compare {
		if err := runCompare(*baselinePath, *churnJSON, *ckptJSON, *scaleJSON, *emitJSON, *wireJSON, *obsJSON, *elasticJSON, *fedJSON, *placeJSON, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark regression gate: %v\n", err)
			os.Exit(1)
		}
		return
	}

	base := bench.Scenario{Seed: *seed, Speedup: *speedup}
	var appList []bench.App
	for _, a := range strings.Split(*apps, ",") {
		switch strings.TrimSpace(a) {
		case "bcp":
			appList = append(appList, bench.BCP)
		case "sg", "signalguru":
			appList = append(appList, bench.SG)
		}
	}
	if len(appList) == 0 {
		fmt.Fprintln(os.Stderr, "no apps selected")
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v of wall time)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	if want("fig6") {
		run("fig6", func() error {
			bench.Fig6(os.Stdout)
			return nil
		})
	}
	if want("fig8") || want("fig10") {
		for _, app := range appList {
			app := app
			run("fig8/fig10 "+app.String(), func() error {
				outs, err := bench.SteadyState(app, base)
				if err != nil {
					return err
				}
				if want("fig8") {
					bench.WriteFig8(os.Stdout, app, outs)
				}
				if want("fig10") {
					bench.WriteFig10(os.Stdout, app, outs)
				}
				return nil
			})
		}
	}
	if want("fig9") {
		for _, app := range appList {
			app := app
			run("fig9 "+app.String(), func() error {
				_, err := bench.Fig9(app, base, *maxK, os.Stdout)
				return err
			})
		}
	}
	if want("table1") {
		run("table1", func() error {
			_, err := bench.Table1(base, os.Stdout)
			return err
		})
	}
	if want("checkpoint") {
		run("checkpoint", func() error {
			ckptBase := bench.CkptScenario{Seed: *seed, Speedup: *speedup}
			rows, err := bench.CkptComparison(ckptBase, nil)
			if err != nil {
				return err
			}
			bench.WriteCkptTable(os.Stdout, rows)
			if *ckptOut != "" {
				f, err := os.Create(*ckptOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteCkptJSON(f, ckptBase, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *ckptOut)
			}
			return nil
		})
	}
	if want("scale") {
		run("scale", func() error {
			if *scaleMax < bench.DefaultScaleSizes[0] || *scaleMax > 128 {
				return fmt.Errorf("-scalemax %d out of range [%d,128]", *scaleMax, bench.DefaultScaleSizes[0])
			}
			var sizes []int
			for _, s := range bench.DefaultScaleSizes {
				if s <= *scaleMax {
					sizes = append(sizes, s)
				}
			}
			if *scaleMax > sizes[len(sizes)-1] {
				sizes = append(sizes, *scaleMax)
			}
			var channels []int
			for _, c := range strings.Split(*scaleChannels, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(c))
				if err != nil || n < 1 {
					return fmt.Errorf("bad -scalechannels entry %q", c)
				}
				channels = append(channels, n)
			}
			scaleBase := bench.ScaleScenario{Seed: *seed, Speedup: *speedup}
			rows, err := bench.ScaleComparison(scaleBase, sizes, channels)
			if err != nil {
				return err
			}
			bench.WriteScaleTable(os.Stdout, rows)
			if *scaleOut != "" {
				f, err := os.Create(*scaleOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteScaleJSON(f, scaleBase, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *scaleOut)
			}
			return nil
		})
	}
	if want("emit") {
		run("emit", func() error {
			rep := bench.RunEmit(*emitIters, os.Stdout)
			if *emitOut != "" {
				f, err := os.Create(*emitOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteEmitJSON(f, rep); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *emitOut)
			}
			return nil
		})
	}
	if want("wire") {
		run("wire", func() error {
			rep := bench.RunWire(*wireIters, os.Stdout)
			if *wireOut != "" {
				f, err := os.Create(*wireOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteWireJSON(f, rep); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *wireOut)
			}
			return nil
		})
	}
	if want("obs") {
		run("obs", func() error {
			rep := bench.RunObs(*obsIters, os.Stdout)
			if *obsOut != "" {
				f, err := os.Create(*obsOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteObsJSON(f, rep); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *obsOut)
			}
			return nil
		})
	}
	if want("elastic") {
		run("elastic", func() error {
			// The elastic scenario carries its own speedup default tuned to
			// the service-time model (see ElasticScenario.Speedup); only the
			// seed is taken from the shared flags.
			elasticBase := bench.ElasticScenario{Seed: *seed}
			rows, err := bench.ElasticComparison(elasticBase)
			if err != nil {
				return err
			}
			bench.WriteElasticTable(os.Stdout, rows)
			if *elasticOut != "" {
				f, err := os.Create(*elasticOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteElasticJSON(f, elasticBase, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *elasticOut)
			}
			return nil
		})
	}
	if want("federation") {
		run("federation", func() error {
			fedBase := bench.FederationScenario{Seed: *seed}
			rows, err := bench.FederationComparison(fedBase)
			if err != nil {
				return err
			}
			bench.WriteFederationTable(os.Stdout, rows)
			if *fedOut != "" {
				f, err := os.Create(*fedOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteFederationJSON(f, fedBase, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *fedOut)
			}
			return nil
		})
	}
	if want("placement") {
		run("placement", func() error {
			// The placement scenario carries its own speedup default tuned
			// so a plan step's code-ship window spans enough wall time to
			// survive CI scheduling stalls (see PlacementScenario.Speedup);
			// only the seed is taken from the shared flags.
			placeBase := bench.PlacementScenario{Seed: *seed}
			rows, err := bench.PlacementComparison(placeBase)
			if err != nil {
				return err
			}
			bench.WritePlacementTable(os.Stdout, rows)
			if *placeOut != "" {
				f, err := os.Create(*placeOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WritePlacementJSON(f, placeBase, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *placeOut)
			}
			return nil
		})
	}
	if want("churn") {
		run("churn", func() error {
			churnBase := bench.ChurnScenario{Seed: *seed, Speedup: *speedup}
			rows, err := bench.ChurnComparison(churnBase, bench.ChurnSchemes)
			if err != nil {
				return err
			}
			bench.WriteChurnTable(os.Stdout, rows)
			if *churnOut != "" {
				f, err := os.Create(*churnOut)
				if err != nil {
					return err
				}
				defer f.Close()
				if err := bench.WriteChurnJSON(f, churnBase, rows); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", *churnOut)
			}
			return nil
		})
	}
}
