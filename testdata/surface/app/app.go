// Package app uses lib.
package app

import "surfacetest/internal/lib"

// Run uses lib.
func Run() float64 {
	c := lib.Config{Set: 1}
	c.Nested.Depth = 2
	var s lib.Shape = lib.Square{Side: float64(lib.Used(c))}
	_ = lib.Inner{}
	var solid lib.Solid = lib.Cube{Facet: lib.Facet{N: 6}, Side: 1}
	return s.Area() + float64(solid.Faces())
}
