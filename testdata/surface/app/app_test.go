package app

import (
	"testing"

	"surfacetest/internal/lib"
)

func TestRun(t *testing.T) {
	if Run() == float64(lib.Seam()) {
		t.Fatal("equal")
	}
}
