// SignalGuru (§II-B, Fig. 3) across two cascaded intersections: windshield
// frames pass real colour/shape/motion filters, phases are learned, and the
// first intersection's advisories feed the second one's predictor over the
// cellular network (Fig. 4's cascading).
package main

import (
	"fmt"
	"time"

	"mobistreams"
	"mobistreams/internal/apps/signalguru"
	"mobistreams/internal/workload"
)

func main() {
	params := signalguru.Params{
		RealCompute: true,
		ColorCost:   400 * time.Millisecond,
		ShapeCost:   250 * time.Millisecond,
		MotionCost:  200 * time.Millisecond,
	}

	sys := mobistreams.NewSystem(mobistreams.SystemConfig{
		Speedup:          40,
		CheckpointPeriod: 60 * time.Second,
	})

	mk := func(id string, onAdvisory func(signalguru.Advisory)) *mobistreams.Region {
		p, err := signalguru.Pipeline(params, onAdvisory)
		if err != nil {
			panic(err)
		}
		r, err := sys.AddRegion(mobistreams.RegionSpec{ID: id, Pipeline: p, Scheme: mobistreams.MS, Phones: 10})
		if err != nil {
			panic(err)
		}
		return r
	}

	var firstAdv, secondAdv int
	second := mk("intersection-2", func(adv signalguru.Advisory) {
		secondAdv++
		if secondAdv%10 == 0 {
			fmt.Printf("  [intersection-2] %v expected in %.0f s\n", adv.Color, adv.NextInSec)
		}
	})
	first := mk("intersection-1", func(signalguru.Advisory) { firstAdv++ })
	// Intersection 1's advisories feed intersection 2's S0 source.
	sys.Connect(first, second, "S0")

	sys.Start()
	defer sys.Stop()
	clk := sys.Clock()

	gen := workload.NewGenerator(clk)
	defer gen.Stop()
	for _, r := range []*mobistreams.Region{first, second} {
		gen.StartSGCamera(r.Ingest, workload.SGCameraConfig{
			Period:     2 * time.Second,
			PhaseLen:   10,
			RealImages: true,
			Seed:       11,
		})
	}

	fmt.Println("two intersections running with real filters; phases change every ~20 s")
	clk.Sleep(4 * time.Minute)

	fmt.Printf("\nintersection-1 published %d advisories; intersection-2 %d (with upstream blending)\n",
		firstAdv, secondAdv)
	for _, r := range []*mobistreams.Region{first, second} {
		rep := r.Report()
		fmt.Printf("%.2f t/s, mean latency %v, checkpoints committed: v%d\n",
			rep.ThroughputTPS, rep.MeanLatency.Round(time.Millisecond), r.Committed())
	}
}
