package vision

import (
	"testing"
	"testing/quick"
)

func TestIntegralRectSum(t *testing.T) {
	im := newImage(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			im.set(x, y, 10, 10, 10) // luma 10
		}
	}
	ii := newIntegral(im)
	if got := ii.rectSum(0, 0, 8, 8); got != 64*10 {
		t.Fatalf("full sum = %d, want 640", got)
	}
	if got := ii.rectSum(2, 2, 3, 4); got != 12*10 {
		t.Fatalf("inner sum = %d, want 120", got)
	}
	if got := ii.rectMean(2, 2, 3, 4); got != 10 {
		t.Fatalf("mean = %v, want 10", got)
	}
	if got := ii.rectMean(0, 0, 0, 0); got != 0 {
		t.Fatalf("empty mean = %v", got)
	}
}

// Property: RectSum equals the brute-force pixel sum for random images and
// rectangles.
func TestIntegralMatchesBruteForce(t *testing.T) {
	f := func(seed int64, rx, ry, rw, rh uint8) bool {
		im, _ := GenerateFaces(Scene{W: 40, H: 30, Noise: 50, Seed: seed}, 1)
		ii := newIntegral(im)
		x := int(rx) % 30
		y := int(ry) % 20
		w := int(rw)%(40-x) + 1
		h := int(rh)%(30-y) + 1
		var want int64
		for yy := y; yy < y+h; yy++ {
			for xx := x; xx < x+w; xx++ {
				want += int64(im.Gray(xx, yy))
			}
		}
		return ii.rectSum(x, y, w, h) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCountFacesExact(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5} {
		im, planted := GenerateFaces(Scene{W: 160, H: 120, Noise: 30, Seed: int64(n) + 7}, n)
		if len(planted) != n {
			t.Fatalf("planted %d, want %d", len(planted), n)
		}
		if got := CountFaces(im); got != n {
			t.Fatalf("CountFaces = %d, want %d", got, n)
		}
	}
}

func TestDetectionLocations(t *testing.T) {
	im, planted := GenerateFaces(Scene{W: 200, H: 150, Noise: 20, Seed: 42}, 4)
	dets := faceCascade().detect(newIntegral(im), 1)
	if len(dets) != len(planted) {
		t.Fatalf("detections = %d, want %d", len(dets), len(planted))
	}
	for _, p := range planted {
		found := false
		for _, d := range dets {
			dx, dy := d.X-p.X, d.Y-p.Y
			if dx*dx+dy*dy <= 144 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no detection near planted face at (%d,%d): %v", p.X, p.Y, dets)
		}
	}
}

func TestNoFalsePositivesOnNoise(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		im, _ := GenerateFaces(Scene{W: 160, H: 120, Noise: 60, Seed: seed}, 0)
		if got := CountFaces(im); got != 0 {
			t.Fatalf("seed %d: %d false positives", seed, got)
		}
	}
}

func TestColorFilterFindsLight(t *testing.T) {
	for _, c := range []LightColor{Red, Yellow, Green} {
		im, light := GenerateIntersection(Scene{W: 120, H: 90, Noise: 20, Seed: int64(c) + 1}, c, 0)
		blobs := ColorFilter(im)
		if len(blobs) == 0 {
			t.Fatalf("%v: no blobs found", c)
		}
		found := false
		for _, b := range blobs {
			if b.Color == c {
				dx, dy := b.CenterX()-light.X, b.CenterY()-light.Y
				if dx*dx+dy*dy <= 16 {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("%v: planted light not found in %v", c, blobs)
		}
	}
}

func TestShapeFilterRejectsBars(t *testing.T) {
	im, _ := GenerateIntersection(Scene{W: 120, H: 90, Noise: 10, Seed: 3}, Green, 6)
	all := ColorFilter(im)
	circ := ShapeFilter(all)
	if len(circ) >= len(all) && len(all) > 1 {
		t.Fatalf("shape filter rejected nothing: %d -> %d", len(all), len(circ))
	}
	// The planted disc must survive.
	found := false
	for _, b := range circ {
		if b.Color == Green {
			found = true
		}
	}
	if !found {
		t.Fatal("shape filter dropped the true light")
	}
}

func TestMotionFilterKeepsStaticLight(t *testing.T) {
	im1, l1 := GenerateIntersection(Scene{W: 120, H: 90, Noise: 10, Seed: 9}, Red, 4)
	im2, _ := GenerateIntersection(Scene{W: 120, H: 90, Noise: 10, Seed: 9}, Red, 4)
	prev := ShapeFilter(ColorFilter(im1))
	cur := ShapeFilter(ColorFilter(im2))
	kept := MotionFilter(prev, cur, 3)
	found := false
	for _, b := range kept {
		dx, dy := b.CenterX()-l1.X, b.CenterY()-l1.Y
		if b.Color == Red && dx*dx+dy*dy <= 16 {
			found = true
		}
	}
	if !found {
		t.Fatalf("motion filter dropped the static light: %v", kept)
	}
	// A moved frame (different seed shifts the distractors AND the head
	// position) must not match blobs far away.
	im3, _ := GenerateIntersection(Scene{W: 120, H: 90, Noise: 10, Seed: 77}, Red, 4)
	cur3 := ShapeFilter(ColorFilter(im3))
	kept3 := MotionFilter(prev, cur3, 2)
	for _, b := range kept3 {
		dx, dy := b.CenterX()-l1.X, b.CenterY()-l1.Y
		if dx*dx+dy*dy > 16 {
			t.Fatalf("motion filter kept a moving blob: %v", b)
		}
	}
}

func TestVote(t *testing.T) {
	if _, ok := Vote(nil); ok {
		t.Fatal("vote on empty should fail")
	}
	blobs := []Blob{{Color: Green, Count: 5}, {Color: Green, Count: 5}, {Color: Red, Count: 5}}
	c, ok := Vote(blobs)
	if !ok || c != Green {
		t.Fatalf("vote = %v/%v, want green", c, ok)
	}
	// Tie prefers the more cautious colour.
	tie := []Blob{{Color: Green, Count: 5}, {Color: Red, Count: 5}}
	c, _ = Vote(tie)
	if c != Red {
		t.Fatalf("tie vote = %v, want red", c)
	}
}

func TestImageAccessors(t *testing.T) {
	im := newImage(4, 4)
	im.set(1, 2, 10, 20, 30)
	r, g, b := im.at(1, 2)
	if r != 10 || g != 20 || b != 30 {
		t.Fatal("set/at mismatch")
	}
	im.set(-1, 0, 9, 9, 9) // must not panic
	im.set(4, 4, 9, 9, 9)
	if im.Bytes() != 4*4*3 {
		t.Fatalf("bytes = %d", im.Bytes())
	}
	if Red.String() != "red" || Yellow.String() != "yellow" || Green.String() != "green" {
		t.Fatal("color names wrong")
	}
}

func BenchmarkCountFaces(b *testing.B) {
	im, _ := GenerateFaces(Scene{W: 160, H: 120, Noise: 30, Seed: 1}, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountFaces(im)
	}
}

func BenchmarkColorShapePipeline(b *testing.B) {
	im, _ := GenerateIntersection(Scene{W: 160, H: 120, Noise: 20, Seed: 1}, Green, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShapeFilter(ColorFilter(im))
	}
}

// Bytes reports the serialized size used for network accounting.
func (im *Image) Bytes() int { return len(im.Pix) }
