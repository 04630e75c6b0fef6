// Package vision is the image-processing substrate for the two driving
// applications: BCP counts waiting passengers with a Haar-like cascade over
// integral images (the paper's HaarTraining face detection [17]), and
// SignalGuru detects traffic signals with colour, shape and motion filters
// (§II-B). Images are synthetic — procedurally generated with planted
// faces/lights — so experiments are deterministic and hardware-free, while
// the detection code paths are real.
package vision

import "math/rand"

// Image is a small RGB frame. Pixel channels are 8-bit.
type Image struct {
	W, H int
	Pix  []uint8 // RGB interleaved, len = W*H*3
}

// newImage allocates a black image.
func newImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// at returns the RGB triple at (x, y).
func (im *Image) at(x, y int) (r, g, b uint8) {
	i := (y*im.W + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// set writes the RGB triple at (x, y); out-of-bounds writes are ignored.
func (im *Image) set(x, y int, r, g, b uint8) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// Gray returns the luma at (x, y) in [0,255].
func (im *Image) Gray(x, y int) int {
	r, g, b := im.at(x, y)
	return (299*int(r) + 587*int(g) + 114*int(b)) / 1000
}

// fillRect paints a filled rectangle.
func (im *Image) fillRect(x0, y0, w, h int, r, g, b uint8) {
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			im.set(x, y, r, g, b)
		}
	}
}

// fillDisc paints a filled disc.
func (im *Image) fillDisc(cx, cy, rad int, r, g, b uint8) {
	for y := cy - rad; y <= cy+rad; y++ {
		for x := cx - rad; x <= cx+rad; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= rad*rad {
				im.set(x, y, r, g, b)
			}
		}
	}
}

// faceSize is the canonical planted face edge length in pixels; the
// detector's base window matches it.
const faceSize = 24

// Scene parameterises a synthetic camera frame.
type Scene struct {
	W, H  int
	Noise int // background noise amplitude (0-64)
	Seed  int64
}

// plantedFace records where a face was planted (ground truth for tests).
type plantedFace struct{ X, Y int }

// GenerateFaces renders a bus-stop frame with n planted faces at random
// non-overlapping positions and returns the frame with ground truth.
func GenerateFaces(sc Scene, n int) (*Image, []plantedFace) {
	rng := rand.New(rand.NewSource(sc.Seed))
	im := background(sc, rng)
	var placed []plantedFace
	const cell = faceSize + 8
	cols := (sc.W - 8) / cell
	rows := (sc.H - 8) / cell
	if cols*rows < n {
		n = cols * rows
	}
	perm := rng.Perm(cols * rows)
	for i := 0; i < n; i++ {
		cx := perm[i] % cols
		cy := perm[i] / cols
		x := 4 + cx*cell + rng.Intn(5)
		y := 4 + cy*cell + rng.Intn(5)
		plantFace(im, x, y)
		placed = append(placed, plantedFace{X: x, Y: y})
	}
	return im, placed
}

// plantFace draws the canonical synthetic face: a bright skin block with a
// darker eye band in the upper third and a darker mouth strip near the
// bottom — the contrast structure the Haar cascade keys on.
func plantFace(im *Image, x, y int) {
	s := faceSize
	im.fillRect(x, y, s, s, 200, 170, 150)               // skin
	im.fillRect(x+2, y+s/4, s-4, s/6, 70, 60, 55)        // eye band
	im.fillRect(x+s/4, y+(3*s)/4, s/2, s/8, 110, 70, 65) // mouth
	im.fillRect(x+s/2-1, y+s/3, 2, s/4, 160, 130, 120)   // nose ridge
	im.fillRect(x, y, s, 2, 90, 80, 75)                  // hairline
}

// Light colours a traffic signal can show.
type LightColor int

const (
	Red LightColor = iota
	Yellow
	Green
)

func (c LightColor) String() string {
	switch c {
	case Red:
		return "red"
	case Yellow:
		return "yellow"
	case Green:
		return "green"
	default:
		return "?"
	}
}

// plantedLight records a planted traffic light (ground truth).
type plantedLight struct {
	X, Y, R int
	Color   LightColor
}

// GenerateIntersection renders a windshield frame with one traffic light in
// the given state plus colourful distractor rectangles (brake lights, signs)
// that the shape/motion filters must reject.
func GenerateIntersection(sc Scene, color LightColor, distractors int) (*Image, plantedLight) {
	rng := rand.New(rand.NewSource(sc.Seed))
	im := background(sc, rng)
	// Signal head: dark housing with the lit disc.
	hx, hy := sc.W/2+rng.Intn(sc.W/8), sc.H/4+rng.Intn(sc.H/8)
	im.fillRect(hx-6, hy-6, 12, 34, 25, 25, 25)
	rad := 4
	light := plantedLight{X: hx, Y: hy + int(color)*10, R: rad, Color: color}
	r, g, b := colorRGB(color)
	im.fillDisc(light.X, light.Y, rad, r, g, b)
	// Distractors: saturated but non-circular or off-palette shapes.
	for i := 0; i < distractors; i++ {
		x := rng.Intn(sc.W - 12)
		y := sc.H/2 + rng.Intn(sc.H/2-12)
		switch rng.Intn(3) {
		case 0: // brake-light bar: red but elongated
			im.fillRect(x, y, 14, 3, 250, 30, 30)
		case 1: // sodium streetlight: orange-ish square
			im.fillRect(x, y, 6, 6, 240, 160, 40)
		default: // foliage: green but ragged
			for k := 0; k < 12; k++ {
				im.set(x+rng.Intn(8), y+rng.Intn(8), 40, 200, 60)
			}
		}
	}
	return im, light
}

func colorRGB(c LightColor) (uint8, uint8, uint8) {
	switch c {
	case Red:
		return 255, 40, 40
	case Yellow:
		return 250, 230, 50
	default:
		return 40, 255, 70
	}
}

func background(sc Scene, rng *rand.Rand) *Image {
	im := newImage(sc.W, sc.H)
	for i := range im.Pix {
		v := 120 + rng.Intn(sc.Noise+1) - sc.Noise/2
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		im.Pix[i] = uint8(v)
	}
	return im
}
