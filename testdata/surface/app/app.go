// Package app uses lib.
package app

import "surfacetest/internal/lib"

// Run uses lib.
func Run() float64 {
	c := lib.Config{Set: 1}
	c.Nested.Depth = 2
	var s lib.Shape = lib.Square{Side: float64(lib.Used(c))}
	_ = lib.Inner{}
	return s.Area()
}
