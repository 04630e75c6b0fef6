package signalguru

import "testing"

func TestPhaseEstimator(t *testing.T) {
	var p phaseEstimator
	if got := p.meanDuration(0, 30); got != 30 {
		t.Fatalf("fallback mean = %v", got)
	}
	for i := 0; i < 10; i++ {
		p.observe(0, 40)
		p.observe(2, 25)
	}
	if got := p.meanDuration(0, 30); got != 40 {
		t.Fatalf("red mean = %v, want 40", got)
	}
	if got := p.timeToChange(0, 15, 30); got != 25 {
		t.Fatalf("time to change = %v, want 25", got)
	}
	if got := p.timeToChange(0, 100, 30); got != 0 {
		t.Fatalf("elapsed past mean should clamp to 0, got %v", got)
	}
	p.observe(9, 1) // out of range must not panic
	if len(p.durations[0]) != 10 || len(p.durations[1]) != 0 || len(p.durations[2]) != 10 {
		t.Fatal("observation counts wrong")
	}
}

func TestPhaseEstimatorWindowBound(t *testing.T) {
	var p phaseEstimator
	for i := 0; i < 200; i++ {
		p.observe(1, float64(i))
	}
	if got := len(p.durations[1]); got != 64 {
		t.Fatalf("window = %d, want 64", got)
	}
}
