package signalguru

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/internal/vision"
)

const (
	obsTupleBytes = 2048
	ctlTupleBytes = 256
	advTupleBytes = 512
)

// blobsValue is the intermediate payload between filter stages.
type blobsValue struct {
	frame Frame
	blobs []vision.Blob
}

// colorFilter (C0..C2) extracts signal-palette blobs.
type colorFilter struct {
	operator.Base
	cost  time.Duration
	real  bool
	n     uint64
	delta operator.DeltaTracker
}

func newColorFilter(id string, p Params) *colorFilter {
	return &colorFilter{Base: operator.Base{Name: id}, cost: p.ColorCost, real: p.RealCompute}
}

func (o *colorFilter) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *colorFilter) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	f, ok := t.Value.(Frame)
	if !ok {
		return fmt.Errorf("%s: unexpected payload %T", o.Name, t.Value)
	}
	o.n++
	var blobs []vision.Blob
	if o.real && f.Image != nil {
		blobs = vision.ColorFilter(f.Image)
	} else {
		// Ground-truth mode: one perfect blob of the planted colour.
		blobs = []vision.Blob{truthBlob(f.Truth)}
	}
	out := ctx.Clone(t)
	out.Kind = "blobs"
	out.Size = obsTupleBytes
	out.Value = blobsValue{frame: f, blobs: blobs}
	ctx.Emit(out)
	return nil
}

func truthBlob(c vision.LightColor) vision.Blob {
	// A canonical 5x5 disc-ish blob at a fixed location.
	return vision.Blob{Color: c, MinX: 60, MinY: 30, MaxX: 64, MaxY: 34, Count: 20, SumX: 62 * 20, SumY: 32 * 20}
}

func (o *colorFilter) Snapshot() ([]byte, error) { return u64(o.n), nil }
func (o *colorFilter) Restore(d []byte) error    { return getU64(d, &o.n, o.Name) }
func (*colorFilter) StateSize() int              { return 8 }

// shapeFilter (A0..A2) keeps circular blobs.
type shapeFilter struct {
	operator.Base
	cost  time.Duration
	real  bool
	n     uint64
	delta operator.DeltaTracker
}

func newShapeFilter(id string, p Params) *shapeFilter {
	return &shapeFilter{Base: operator.Base{Name: id}, cost: p.ShapeCost, real: p.RealCompute}
}

func (o *shapeFilter) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *shapeFilter) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	bv, ok := t.Value.(blobsValue)
	if !ok {
		return fmt.Errorf("%s: unexpected payload %T", o.Name, t.Value)
	}
	o.n++
	if o.real {
		bv.blobs = vision.ShapeFilter(bv.blobs)
	}
	out := ctx.Clone(t)
	out.Size = obsTupleBytes
	out.Value = bv
	ctx.Emit(out)
	return nil
}

func (o *shapeFilter) Snapshot() ([]byte, error) { return u64(o.n), nil }
func (o *shapeFilter) Restore(d []byte) error    { return getU64(d, &o.n, o.Name) }
func (*shapeFilter) StateSize() int              { return 8 }

// motionFilter (M0..M2) keeps blobs static across the column's consecutive
// frames; its previous-frame blobs are checkpointed state.
type motionFilter struct {
	operator.Base
	cost  time.Duration
	real  bool
	extra int
	prev  []vision.Blob
	n     uint64
	delta operator.DeltaTracker
}

func newMotionFilter(id string, p Params) *motionFilter {
	return &motionFilter{Base: operator.Base{Name: id}, cost: p.MotionCost, real: p.RealCompute, extra: columnStateBytes}
}

func (o *motionFilter) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *motionFilter) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	bv, ok := t.Value.(blobsValue)
	if !ok {
		return fmt.Errorf("%s: unexpected payload %T", o.Name, t.Value)
	}
	o.n++
	kept := bv.blobs
	if o.real {
		if o.prev != nil {
			kept = vision.MotionFilter(o.prev, bv.blobs, 4)
		}
		o.prev = bv.blobs
	}
	color, valid := vision.Vote(kept)
	out := ctx.Clone(t)
	out.Kind = "observation"
	out.Size = ctlTupleBytes
	out.Value = observation{Color: color, Valid: valid}
	ctx.Emit(out)
	return nil
}

func (o *motionFilter) Snapshot() ([]byte, error) {
	buf := u64(o.n)
	buf = append(buf, byte(len(o.prev)))
	for _, b := range o.prev {
		buf = append(buf, byte(b.Color))
		buf = appendU32(buf, uint32(b.CenterX()))
		buf = appendU32(buf, uint32(b.CenterY()))
	}
	return buf, nil
}

func (o *motionFilter) Restore(data []byte) error {
	if len(data) < 9 {
		return fmt.Errorf("%s: short state", o.Name)
	}
	o.n = binary.BigEndian.Uint64(data)
	cnt := int(data[8])
	off := 9
	o.prev = nil
	for i := 0; i < cnt; i++ {
		if off+9 > len(data) {
			return fmt.Errorf("%s: short blob state", o.Name)
		}
		c := vision.LightColor(data[off])
		x := int(binary.BigEndian.Uint32(data[off+1:]))
		y := int(binary.BigEndian.Uint32(data[off+5:]))
		o.prev = append(o.prev, vision.Blob{Color: c, MinX: x, MaxX: x, MinY: y, MaxY: y, Count: 1, SumX: x, SumY: y})
		off += 9
	}
	return nil
}

func (o *motionFilter) StateSize() int { return 9 + 9*len(o.prev) + o.extra }

// voter (V) fuses the three columns' observations with a short voting
// window.
type voter struct {
	operator.Base
	cost   time.Duration
	window []observation
	n      uint64
	delta  operator.DeltaTracker
}

func newVoter(p Params) *voter {
	return &voter{Base: operator.Base{Name: "V"}, cost: modelCost}
}

func (o *voter) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *voter) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	obs, ok := t.Value.(observation)
	if !ok {
		return fmt.Errorf("V: unexpected payload %T", t.Value)
	}
	o.n++
	if obs.Valid {
		o.window = append(o.window, obs)
		if len(o.window) > 9 {
			o.window = o.window[1:]
		}
	}
	if len(o.window) == 0 {
		return nil
	}
	var counts [3]int
	for _, w := range o.window {
		counts[w.Color]++
	}
	best := vision.Red
	for _, c := range []vision.LightColor{red, yellow, green} {
		if counts[c] > counts[best] {
			best = c
		}
	}
	out := ctx.Clone(t)
	out.Kind = "vote"
	out.Size = ctlTupleBytes
	out.Value = observation{Color: best, Valid: true}
	ctx.Emit(out)
	return nil
}

// Aliases keep the vote loop readable.
const (
	red    = vision.Red
	yellow = vision.Yellow
	green  = vision.Green
)

func (o *voter) Snapshot() ([]byte, error) {
	buf := u64(o.n)
	buf = append(buf, byte(len(o.window)))
	for _, w := range o.window {
		buf = append(buf, byte(w.Color))
	}
	return buf, nil
}

func (o *voter) Restore(data []byte) error {
	if len(data) < 9 {
		return fmt.Errorf("V: short state")
	}
	o.n = binary.BigEndian.Uint64(data)
	cnt := int(data[8])
	if len(data) < 9+cnt {
		return fmt.Errorf("V: short window state")
	}
	o.window = nil
	for i := 0; i < cnt; i++ {
		o.window = append(o.window, observation{Color: vision.LightColor(data[9+i]), Valid: true})
	}
	return nil
}

func (o *voter) StateSize() int { return 9 + len(o.window) }

// grouper (G) segments the vote stream into phases and emits a phaseChange
// when the colour flips.
type grouper struct {
	operator.Base
	cost    time.Duration
	extra   int
	current vision.LightColor
	started float64
	have    bool
	delta   operator.DeltaTracker
}

func newGrouper(p Params) *grouper {
	return &grouper{Base: operator.Base{Name: "G"}, cost: modelCost, extra: groupStateBytes}
}

func (o *grouper) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *grouper) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	obs, ok := t.Value.(observation)
	if !ok {
		return fmt.Errorf("G: unexpected payload %T", t.Value)
	}
	now := t.Created.Seconds()
	if !o.have {
		o.current, o.started, o.have = obs.Color, now, true
		return nil
	}
	if obs.Color == o.current {
		// Frame-rate progress: drivers watch a live countdown, so every
		// vote refreshes the advisory downstream (§II-B).
		out := ctx.Clone(t)
		out.Kind = "progress"
		out.Size = ctlTupleBytes
		out.Value = phaseProgress{Color: o.current, Elapsed: now - o.started}
		ctx.Emit(out)
		return nil
	}
	change := phaseChange{Color: o.current, Duration: now - o.started}
	o.current, o.started = obs.Color, now
	out := ctx.Clone(t)
	out.Kind = "phase"
	out.Size = ctlTupleBytes
	out.Value = change
	ctx.Emit(out)
	return nil
}

func (o *grouper) Snapshot() ([]byte, error) {
	buf := make([]byte, 0, 18)
	buf = append(buf, byte(o.current))
	if o.have {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(o.started))
	return append(buf, tmp[:]...), nil
}

func (o *grouper) Restore(data []byte) error {
	if len(data) < 10 {
		return fmt.Errorf("G: short state")
	}
	o.current = vision.LightColor(data[0])
	o.have = data[1] == 1
	o.started = math.Float64frombits(binary.BigEndian.Uint64(data[2:]))
	return nil
}

func (o *grouper) StateSize() int { return 10 + o.extra }

// predictor (P) learns phase durations (phaseEstimator), blends in the
// upstream intersection's advisory (S0), and emits transition-time
// advisories.
type predictor struct {
	operator.Base
	cost     time.Duration
	extra    int
	est      phaseEstimator
	upstream float64
	haveUp   bool
	emitted  uint64
	delta    operator.DeltaTracker
}

func newPredictor(p Params) *predictor {
	return &predictor{Base: operator.Base{Name: "P"}, cost: modelCost, extra: predictStateBytes}
}

func (o *predictor) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *predictor) Process(ctx *operator.Context, from string, t *tuple.Tuple) error {
	if from == "S0" {
		if adv, ok := t.Value.(Advisory); ok {
			o.upstream = adv.NextInSec
			o.haveUp = true
		}
		return nil
	}
	switch v := t.Value.(type) {
	case phaseProgress:
		// Live countdown: remaining time in the current phase.
		o.emitted++
		rem := o.est.timeToChange(int(v.Color), v.Elapsed, 30)
		out := ctx.Clone(t)
		out.Kind = "advisory"
		out.Size = advTupleBytes
		out.Value = Advisory{Color: v.Color, NextInSec: rem}
		ctx.Emit(out)
		return nil
	case phaseChange:
		o.est.observe(int(v.Color), v.Duration)
		o.emitted++
		next := o.est.meanDuration(int(nextColor(v.Color)), 30)
		if o.haveUp {
			// Blend the upstream intersection's advisory: lights along
			// a corridor are coordinated (§II-B).
			next = 0.7*next + 0.3*o.upstream
		}
		out := ctx.Clone(t)
		out.Kind = "advisory"
		out.Size = advTupleBytes
		out.Value = Advisory{Color: nextColor(v.Color), NextInSec: next}
		ctx.Emit(out)
		return nil
	default:
		return fmt.Errorf("P: unexpected payload %T", t.Value)
	}
}

func nextColor(c vision.LightColor) vision.LightColor {
	switch c {
	case red:
		return green
	case green:
		return yellow
	default:
		return red
	}
}

func (o *predictor) Snapshot() ([]byte, error) {
	buf := u64(o.emitted)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(o.upstream))
	buf = append(buf, tmp[:]...)
	if o.haveUp {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for c := 0; c < 3; c++ {
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(o.est.meanDuration(c, -1)))
		buf = append(buf, tmp[:]...)
	}
	return buf, nil
}

func (o *predictor) Restore(data []byte) error {
	if len(data) < 17+24 {
		return fmt.Errorf("P: short state")
	}
	o.emitted = binary.BigEndian.Uint64(data)
	o.upstream = math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
	o.haveUp = data[16] == 1
	o.est = phaseEstimator{}
	off := 17
	for c := 0; c < 3; c++ {
		mean := math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		if mean >= 0 {
			o.est.observe(c, mean)
		}
		off += 8
	}
	return nil
}

func (o *predictor) StateSize() int { return 41 + o.extra }

func u64(v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return tmp[:]
}

func getU64(d []byte, v *uint64, name string) error {
	if len(d) < 8 {
		return fmt.Errorf("%s: short state", name)
	}
	*v = binary.BigEndian.Uint64(d)
	return nil
}

func appendU32(buf []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(buf, tmp[:]...)
}

// Incremental checkpointing: every SignalGuru operator exposes delta
// snapshots via the serialised-state diff tracker. The filter columns'
// states are a handful of counters and blob centroids; the motion filter
// and grouper carry modelled column/group state (columnStateBytes,
// groupStateBytes) that is static between checkpoints and therefore absent
// from deltas.

func (o *colorFilter) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *colorFilter) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *shapeFilter) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *shapeFilter) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *motionFilter) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *motionFilter) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *voter) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *voter) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *grouper) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *grouper) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *predictor) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *predictor) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }
