package vision

// SignalGuru's detection kernel (§II-B): colour filtering finds saturated
// red/yellow/green pixels, blob extraction groups them, the shape filter
// keeps circular blobs (signal lamps are discs), and the motion filter
// keeps blobs that stay put across frames (traffic lights are fixed by the
// roadside while brake lights move).

// Blob is a connected component of colour-matching pixels.
type Blob struct {
	Color      LightColor
	MinX, MinY int
	MaxX, MaxY int
	Count      int
	SumX, SumY int
}

// CenterX returns the blob centroid X (0 for an empty blob).
func (b *Blob) CenterX() int {
	if b.Count == 0 {
		return 0
	}
	return b.SumX / b.Count
}

// CenterY returns the blob centroid Y (0 for an empty blob).
func (b *Blob) CenterY() int {
	if b.Count == 0 {
		return 0
	}
	return b.SumY / b.Count
}

// width and height of the bounding box.
func (b *Blob) dims() (int, int) { return b.MaxX - b.MinX + 1, b.MaxY - b.MinY + 1 }

// matchColor classifies a saturated pixel, or returns false.
func matchColor(r, g, bl uint8) (LightColor, bool) {
	ri, gi, bi := int(r), int(g), int(bl)
	switch {
	case ri > 180 && gi < 90 && bi < 90:
		return Red, true
	case ri > 200 && gi > 180 && bi < 110:
		return Yellow, true
	case ri < 110 && gi > 180 && bi < 130:
		return Green, true
	}
	return 0, false
}

// ColorFilter extracts connected blobs of signal-palette pixels (operators
// C0..C2 in Fig. 3).
func ColorFilter(im *Image) []Blob {
	type key struct{ x, y int }
	visited := make([]bool, im.W*im.H)
	colorOf := make([]int8, im.W*im.H) // -1 = no colour
	for i := range colorOf {
		colorOf[i] = -1
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.at(x, y)
			if c, ok := matchColor(r, g, b); ok {
				colorOf[y*im.W+x] = int8(c)
			}
		}
	}
	var blobs []Blob
	var stack []key
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			idx := y*im.W + x
			if visited[idx] || colorOf[idx] < 0 {
				continue
			}
			c := colorOf[idx]
			blob := Blob{Color: LightColor(c), MinX: x, MinY: y, MaxX: x, MaxY: y}
			stack = append(stack[:0], key{x, y})
			visited[idx] = true
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				blob.Count++
				blob.SumX += p.x
				blob.SumY += p.y
				if p.x < blob.MinX {
					blob.MinX = p.x
				}
				if p.x > blob.MaxX {
					blob.MaxX = p.x
				}
				if p.y < blob.MinY {
					blob.MinY = p.y
				}
				if p.y > blob.MaxY {
					blob.MaxY = p.y
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := p.x+d[0], p.y+d[1]
					if nx < 0 || ny < 0 || nx >= im.W || ny >= im.H {
						continue
					}
					nidx := ny*im.W + nx
					if !visited[nidx] && colorOf[nidx] == c {
						visited[nidx] = true
						stack = append(stack, key{nx, ny})
					}
				}
			}
			if blob.Count >= 4 {
				blobs = append(blobs, blob)
			}
		}
	}
	return blobs
}

// ShapeFilter keeps circular blobs: the fill ratio of a disc inside its
// bounding box is pi/4 ~ 0.785 and the box is near-square (operators
// A0..A2 in Fig. 3).
func ShapeFilter(blobs []Blob) []Blob {
	var out []Blob
	for _, b := range blobs {
		w, h := b.dims()
		if w < 3 || h < 3 {
			continue
		}
		aspect := float64(w) / float64(h)
		if aspect < 0.6 || aspect > 1.67 {
			continue
		}
		fill := float64(b.Count) / float64(w*h)
		if fill < 0.6 || fill > 0.95 {
			continue
		}
		out = append(out, b)
	}
	return out
}

// MotionFilter keeps blobs whose centroid stays within tol pixels of a blob
// of the same colour in the previous frame — traffic lights are fixed,
// brake lights and reflections move (operators M0..M2 in Fig. 3).
func MotionFilter(prev, cur []Blob, tol int) []Blob {
	var out []Blob
	for _, c := range cur {
		for _, p := range prev {
			if c.Color != p.Color {
				continue
			}
			dx := c.CenterX() - p.CenterX()
			dy := c.CenterY() - p.CenterY()
			if dx*dx+dy*dy <= tol*tol {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// Vote picks the winning light colour from filtered blobs across the
// collaborating phones (operator V in Fig. 3): the colour with the most
// supporting blobs wins; ties prefer the more cautious colour (red over
// yellow over green).
func Vote(blobs []Blob) (LightColor, bool) {
	var counts [3]int
	for _, b := range blobs {
		counts[b.Color]++
	}
	best, bestN := Red, 0
	for _, c := range []LightColor{Red, Yellow, Green} {
		if counts[c] > bestN {
			best, bestN = c, counts[c]
		}
	}
	return best, bestN > 0
}
