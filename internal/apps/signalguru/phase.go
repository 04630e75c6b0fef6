package signalguru

import "math"

// phaseEstimator predicts traffic-signal transition times from observed
// phase durations — the statistical half of SignalGuru's operator P. It
// keeps per-colour duration histories and estimates time-to-change as the
// historical mean minus elapsed time.
type phaseEstimator struct {
	durations [3][]float64
}

// observe records a completed phase of the given colour and duration in
// seconds.
func (p *phaseEstimator) observe(color int, seconds float64) {
	if color < 0 || color > 2 {
		return
	}
	p.durations[color] = append(p.durations[color], seconds)
	if len(p.durations[color]) > 64 {
		p.durations[color] = p.durations[color][1:]
	}
}

// meanDuration returns the historical mean phase length for a colour, or
// the fallback when unobserved.
func (p *phaseEstimator) meanDuration(color int, fallback float64) float64 {
	d := p.durations[color]
	if len(d) == 0 {
		return fallback
	}
	var s float64
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// timeToChange predicts the remaining seconds of the current phase.
func (p *phaseEstimator) timeToChange(color int, elapsed, fallback float64) float64 {
	rem := p.meanDuration(color, fallback) - elapsed
	return math.Max(rem, 0)
}
