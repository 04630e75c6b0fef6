package vision

// integral is a summed-area table over image luma, the core acceleration
// structure of the Viola-Jones/HaarTraining detector the paper's BCP
// counter runs [17].
type integral struct {
	W, H int
	sum  []int64
}

// newIntegral builds the summed-area table in one pass.
func newIntegral(im *Image) *integral {
	ii := &integral{W: im.W, H: im.H, sum: make([]int64, (im.W+1)*(im.H+1))}
	stride := im.W + 1
	for y := 1; y <= im.H; y++ {
		var rowSum int64
		for x := 1; x <= im.W; x++ {
			rowSum += int64(im.Gray(x-1, y-1))
			ii.sum[y*stride+x] = ii.sum[(y-1)*stride+x] + rowSum
		}
	}
	return ii
}

// rectSum returns the luma sum over the rectangle [x, x+w) x [y, y+h) in
// O(1).
func (ii *integral) rectSum(x, y, w, h int) int64 {
	stride := ii.W + 1
	a := ii.sum[y*stride+x]
	b := ii.sum[y*stride+x+w]
	c := ii.sum[(y+h)*stride+x]
	d := ii.sum[(y+h)*stride+x+w]
	return d - b - c + a
}

// rectMean returns the mean luma over a rectangle.
func (ii *integral) rectMean(x, y, w, h int) float64 {
	if w <= 0 || h <= 0 {
		return 0
	}
	return float64(ii.rectSum(x, y, w, h)) / float64(w*h)
}

// haarFeature is a two-region contrast test on the canonical 24x24 window:
// mean(bright region) - mean(dark region) >= Threshold.
type haarFeature struct {
	bx, by, bw, bh int // bright region (window-relative, 24-base)
	dx, dy, dw, dh int // dark region
	threshold      float64
}

// stage is one cascade stage: all features must pass (conjunctive stages
// keep the synthetic cascade exact; real cascades use weighted sums).
type stage []haarFeature

// cascade is a Haar-like detection cascade over a sliding window.
type cascade struct {
	base   int
	stages []stage
}

// faceCascade returns the cascade keyed to the canonical synthetic face:
// stage 1 tests the eye band darker than the forehead, stage 2 the mouth
// darker than the cheeks, stage 3 overall skin brightness against the
// background.
func faceCascade() *cascade {
	s := faceSize
	return &cascade{
		base: s,
		stages: []stage{
			{ // eye band vs forehead
				{bx: 2, by: s / 12, bw: s - 4, bh: s / 8, dx: 2, dy: s / 4, dw: s - 4, dh: s / 6, threshold: 40},
			},
			{ // cheeks vs mouth
				{bx: 2, by: s / 2, bw: s - 4, bh: s / 8, dx: s / 4, dy: (3 * s) / 4, dw: s / 2, dh: s / 8, threshold: 25},
			},
			{ // skin centre brighter than immediate surround is approximated
				// by absolute brightness of the centre block
				{bx: s / 4, by: (2 * s) / 5, bw: s / 2, bh: s / 5, dx: 0, dy: 0, dw: 1, dh: 1, threshold: -1e9},
			},
		},
	}
}

// windowPasses evaluates all stages at (x, y) with scale 1.
func (c *cascade) windowPasses(ii *integral, x, y int) bool {
	for si, st := range c.stages {
		for _, f := range st {
			bright := ii.rectMean(x+f.bx, y+f.by, f.bw, f.bh)
			dark := ii.rectMean(x+f.dx, y+f.dy, f.dw, f.dh)
			if si == len(c.stages)-1 {
				// absolute-brightness stage
				if bright < 150 {
					return false
				}
				continue
			}
			if bright-dark < f.threshold {
				return false
			}
		}
	}
	return true
}

// detection is one accepted window.
type detection struct{ X, Y, Size int }

// detect slides the cascade across the integral image with the given step
// and returns non-maximum-suppressed detections. The acceptance region
// around a true face is several pixels wide, so the suppression radius is
// 3/4 of the window — wide enough to merge a face's cluster, narrower than
// the minimum spacing of distinct faces.
func (c *cascade) detect(ii *integral, step int) []detection {
	if step <= 0 {
		step = 1
	}
	var raw []detection
	for y := 0; y+c.base <= ii.H; y += step {
		for x := 0; x+c.base <= ii.W; x += step {
			if c.windowPasses(ii, x, y) {
				raw = append(raw, detection{X: x, Y: y, Size: c.base})
			}
		}
	}
	return suppress(raw, (3*c.base)/4)
}

// CountFaces runs the canonical pipeline: integral image, cascade sweep,
// suppression — and returns the face count. This is the BCP counter
// operator's kernel.
func CountFaces(im *Image) int {
	return len(faceCascade().detect(newIntegral(im), 1))
}

// suppress keeps one detection per cluster closer than minDist.
func suppress(raw []detection, minDist int) []detection {
	var kept []detection
	for _, d := range raw {
		dup := false
		for _, k := range kept {
			dx, dy := d.X-k.X, d.Y-k.Y
			if dx*dx+dy*dy < minDist*minDist {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, d)
		}
	}
	return kept
}
