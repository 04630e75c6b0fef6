// Package lib holds one offender of each kind the surface checks report,
// and one of each kind they must let pass.
package lib

import "fmt"

// Config is a guarded config struct.
type Config struct {
	Set    int   // set by a composite literal in app
	Nested Inner // set only through a nested selector in app
	Unset  int   // set only by tests and by Config's own method: flagged
}

// Inner is named by app.
type Inner struct{ Depth int }

func (c *Config) defaults() {
	if c.Unset == 0 {
		c.Unset = 1
	}
}

// Used is called by app.
func Used(c Config) int {
	c.defaults()
	return c.Set + c.Nested.Depth + Helper()
}

// Helper is used only inside lib: flagged to unexport.
func Helper() int { return 1 }

// Unused has no user: flagged to delete.
func Unused() {}

// TestOnly is used only by lib's own tests: flagged to delete.
func TestOnly() int { return 2 }

// Seam is used only by app's tests, which counts.
func Seam() int { return 3 }

// Shape's Area is called by app.
type Shape interface{ Area() float64 }

// Square is named by app.
type Square struct{ Side float64 }

// Area satisfies Shape, whose Area app calls.
func (s Square) Area() float64 { return s.Side * s.Side }

// String satisfies fmt.Stringer.
func (s Square) String() string { return fmt.Sprint(s.Side) }

// Corners has no user: flagged to delete.
func (s Square) Corners() int { return 4 }

// Solid's Faces is called by app.
type Solid interface {
	Faces() int
	Volume() float64
}

// Facet satisfies no interface on its own; app names it.
type Facet struct{ N int }

// Faces is promoted into Cube, which satisfies Solid: counts as used.
func (f Facet) Faces() int { return f.N }

// Edges is promoted into Cube too, but no interface has it: flagged.
func (f Facet) Edges() int { return 2 * f.N }

// Cube embeds Facet; app names it.
type Cube struct {
	Facet
	Side float64
}

// Volume completes Solid for Cube.
func (c Cube) Volume() float64 { return c.Side * c.Side * c.Side }
