// Bus Capacity Prediction (§II-B, Fig. 2) on one bus stop's phone cluster,
// with real image processing: camera frames carry synthetic bus-stop
// pictures, the counters run the Haar cascade, and the sink prints on-bus
// capacity predictions that would cascade to the next stop.
package main

import (
	"fmt"
	"time"

	"mobistreams"
	"mobistreams/internal/apps/bcp"
	"mobistreams/internal/vision"
	"mobistreams/internal/workload"
)

func main() {
	// Real compute: the counters run vision.CountFaces on each frame.
	params := bcp.Params{
		RealCompute: true,
		CounterCost: 2 * time.Second, // modelled 600 MHz-A8 time on top of real work
		MotionCost:  300 * time.Millisecond,
	}
	outputs := 0
	p, err := bcp.Pipeline(params, func(pred bcp.Prediction) {
		outputs++
		if outputs%5 == 0 {
			fmt.Printf("  bus %d: predicted on-board %.1f (board %.1f, alight %.1f)\n",
				pred.BusSeq, pred.OnBoard, pred.Board, pred.Alight)
		}
	})
	if err != nil {
		panic(err)
	}

	sys := mobistreams.NewSystem(mobistreams.SystemConfig{
		Speedup:          40,
		CheckpointPeriod: 60 * time.Second,
	})
	region, err := sys.AddRegion(mobistreams.RegionSpec{ID: "busstop-1", Pipeline: p, Scheme: mobistreams.MS, Phones: 10})
	if err != nil {
		panic(err)
	}
	sys.Start()
	defer sys.Stop()
	clk := sys.Clock()

	gen := workload.NewGenerator(clk)
	defer gen.Stop()
	gen.StartBCPCamera(region.Ingest, workload.BCPCameraConfig{
		Period:     4 * time.Second,
		RealImages: true,
		MaxPeople:  5,
		Seed:       7,
	})
	gen.StartBCPBus(region.Ingest, workload.BCPBusConfig{Period: 25 * time.Second, Seed: 7})

	fmt.Println("bus stop running: camera every 4 s (real Haar counting), bus every 25 s")
	clk.Sleep(3 * time.Minute)

	rep := region.Report()
	fmt.Printf("\nafter 3 simulated minutes: %d predictions, %.2f t/s, mean latency %v\n",
		rep.Tuples, rep.ThroughputTPS, rep.MeanLatency.Round(time.Millisecond))
	fmt.Printf("committed checkpoints: v%d; preservation bytes: %.1f MB\n",
		region.Committed(), float64(rep.PreservedBytes)/(1<<20))

	// Sanity-check the vision kernel against ground truth.
	im, planted := vision.GenerateFaces(vision.Scene{W: 200, H: 150, Noise: 25, Seed: 3}, 4)
	fmt.Printf("vision check: planted %d faces, counted %d\n", len(planted), vision.CountFaces(im))
}
