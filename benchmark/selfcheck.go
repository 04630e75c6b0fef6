package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// selfCheck runs every workload n times on consecutive seeds, twice over,
// all in this process, and prints per metric the two medians, the spread
// (interquartile range over median) and the relative gap of the second
// median from the first in the metric's worse direction. It returns 1 if a
// run fails its reference, or a gap or spread exceeds the metric's bound.
func selfCheck(n int, seed int64, seconds int) int {
	status := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				runSeed := seed + int64(s*n+i)
				res, _, _, err := runOne(w.Name, runSeed, seconds, false, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w.Name, runSeed, err)
					return 1
				}
				if !res.Correct {
					fmt.Printf("%s seed %d: correct=false failed=%d %v\n", w.Name, runSeed, res.Failed, res.notes)
					status = 1
				}
				for _, m := range endToEnd {
					sets[s][m.Name] = append(sets[s][m.Name], res.e2e[m.Name])
				}
				runtime.GC() // the next run starts from a collected heap, like a fresh process
			}
		}
		fmt.Printf("%s (%d runs x 2 sets, %d s each)\n", w.Name, n, seconds)
		fmt.Printf("  %-22s %14s %14s %8s %8s %8s %6s\n", "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound")
		for _, m := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			gap := (b2 - a2) / a2
			if m.Better == "higher" {
				gap = -gap
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := ""
			// setup_s is exempt from the spread rule, as in the driver.
			if gap > m.Bound || (m.Name != "setup_s" && math.Max(spreadA, spreadB) > m.Bound) {
				verdict = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("  %-22s %14.4f %14.4f %7.1f%% %7.1f%% %+7.1f%% %5.0f%%%s\n",
				m.Name, a2, b2, spreadA*100, spreadB*100, gap*100, m.Bound*100, verdict)
		}
	}
	return status
}
