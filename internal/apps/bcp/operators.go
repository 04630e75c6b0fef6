package bcp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
	"mobistreams/internal/vision"
)

// small fixed wire sizes for the compact tuples between model operators.
const (
	busTupleBytes   = 512
	countTupleBytes = 256
	predTupleBytes  = 512
)

// putF64 appends a float64 to a buffer.
func putF64(buf []byte, v float64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], math.Float64bits(v))
	return append(buf, tmp[:]...)
}

func getF64(data []byte, off int) (float64, int, error) {
	if off+8 > len(data) {
		return 0, 0, fmt.Errorf("bcp: short state")
	}
	return math.Float64frombits(binary.BigEndian.Uint64(data[off:])), off + 8, nil
}

// noiseFilter (N) drops corrupt bus readings and exponentially smooths the
// on-board count.
type noiseFilter struct {
	operator.Base
	cost  time.Duration
	ewma  float64
	n     uint64
	delta operator.DeltaTracker
}

func newNoiseFilter(p Params) *noiseFilter {
	return &noiseFilter{Base: operator.Base{Name: "N"}, cost: modelCost}
}

func (o *noiseFilter) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *noiseFilter) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	info, ok := t.Value.(BusInfo)
	if !ok || info.Corrupt || info.OnBoard < 0 {
		return nil
	}
	if o.n == 0 {
		o.ewma = info.OnBoard
	} else {
		o.ewma = 0.7*o.ewma + 0.3*info.OnBoard
	}
	o.n++
	out := ctx.Clone(t)
	out.Size = busTupleBytes
	out.Value = BusInfo{OnBoard: o.ewma}
	ctx.Emit(out)
	return nil
}

func (o *noiseFilter) Snapshot() ([]byte, error) {
	buf := putF64(nil, o.ewma)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], o.n)
	return append(buf, tmp[:]...), nil
}

func (o *noiseFilter) Restore(data []byte) error {
	v, off, err := getF64(data, 0)
	if err != nil {
		return err
	}
	if off+8 > len(data) {
		return fmt.Errorf("bcp: short N state")
	}
	o.ewma = v
	o.n = binary.BigEndian.Uint64(data[off:])
	return nil
}

func (*noiseFilter) StateSize() int { return 16 }

// arrivalModel (A) predicts the bus arrival time at this stop from the
// inter-arrival EWMA.
type arrivalModel struct {
	operator.Base
	cost     time.Duration
	lastSeen float64
	interval float64
	n        uint64
	delta    operator.DeltaTracker
}

func newArrivalModel(p Params) *arrivalModel {
	return &arrivalModel{Base: operator.Base{Name: "A"}, cost: modelCost, interval: 300}
}

func (o *arrivalModel) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *arrivalModel) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	now := t.Created.Seconds()
	if o.n > 0 {
		gap := now - o.lastSeen
		if gap > 0 {
			o.interval = 0.8*o.interval + 0.2*gap
		}
	}
	o.lastSeen = now
	o.n++
	out := ctx.Clone(t)
	out.Size = busTupleBytes
	out.Kind = "eta"
	ctx.Emit(out)
	return nil
}

func (o *arrivalModel) Snapshot() ([]byte, error) {
	buf := putF64(nil, o.lastSeen)
	buf = putF64(buf, o.interval)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], o.n)
	return append(buf, tmp[:]...), nil
}

func (o *arrivalModel) Restore(data []byte) error {
	var err error
	var off int
	if o.lastSeen, off, err = getF64(data, 0); err != nil {
		return err
	}
	if o.interval, off, err = getF64(data, off); err != nil {
		return err
	}
	if off+8 > len(data) {
		return fmt.Errorf("bcp: short A state")
	}
	o.n = binary.BigEndian.Uint64(data[off:])
	return nil
}

func (*arrivalModel) StateSize() int { return 24 }

// alightModel (L) predicts alighting passengers as a learned fraction of
// the on-board count.
type alightModel struct {
	operator.Base
	cost     time.Duration
	fraction float64
	delta    operator.DeltaTracker
}

func newAlightModel(p Params) *alightModel {
	return &alightModel{Base: operator.Base{Name: "L"}, cost: modelCost, fraction: 0.3}
}

func (o *alightModel) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *alightModel) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	info, _ := t.Value.(BusInfo)
	alight := o.fraction * info.OnBoard
	out := ctx.Clone(t)
	out.Size = busTupleBytes
	out.Kind = "alight"
	out.Value = alight
	ctx.Emit(out)
	return nil
}

func (o *alightModel) Snapshot() ([]byte, error) { return putF64(nil, o.fraction), nil }

func (o *alightModel) Restore(data []byte) error {
	v, _, err := getF64(data, 0)
	if err != nil {
		return err
	}
	o.fraction = v
	return nil
}

func (*alightModel) StateSize() int { return 8 }

// motionDetect (H) is the passerby filter: frames without people are
// dropped before the expensive counters. With real compute it uses a cheap
// luma signature diff; otherwise it consults the planted ground truth.
type motionDetect struct {
	operator.Base
	cost    time.Duration
	real    bool
	prevSig int64
	dropped uint64
	delta   operator.DeltaTracker
}

func newMotionDetect(p Params) *motionDetect {
	return &motionDetect{Base: operator.Base{Name: "H"}, cost: p.MotionCost, real: p.RealCompute}
}

func (o *motionDetect) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *motionDetect) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	f, ok := t.Value.(Frame)
	if !ok {
		return fmt.Errorf("H: unexpected payload %T", t.Value)
	}
	occupied := f.Planted > 0
	if o.real && f.Image != nil {
		sig := lumaSignature(f.Image)
		occupied = abs64(sig-o.prevSig) > int64(f.Image.W*f.Image.H/64) || f.Planted > 0
		o.prevSig = sig
	}
	if !occupied {
		o.dropped++
		return nil
	}
	ctx.Emit(t)
	return nil
}

func (o *motionDetect) Snapshot() ([]byte, error) {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(o.prevSig))
	binary.BigEndian.PutUint64(buf[8:16], o.dropped)
	return buf[:], nil
}

func (o *motionDetect) Restore(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("bcp: short H state")
	}
	o.prevSig = int64(binary.BigEndian.Uint64(data[0:8]))
	o.dropped = binary.BigEndian.Uint64(data[8:16])
	return nil
}

func (*motionDetect) StateSize() int { return 16 }

func lumaSignature(im *vision.Image) int64 {
	var s int64
	for y := 0; y < im.H; y += 4 {
		for x := 0; x < im.W; x += 4 {
			s += int64(im.Gray(x, y))
		}
	}
	return s
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// counter (C0..C3) counts passengers in a frame with the Haar cascade —
// the paper's HaarTraining kernel — and maintains a count histogram that
// models the counter's statistical state.
type counter struct {
	operator.Base
	cost   time.Duration
	real   bool
	extra  int
	hist   [32]uint64
	frames uint64
	delta  operator.DeltaTracker
}

func newCounter(id string, p Params) *counter {
	return &counter{Base: operator.Base{Name: id}, cost: p.CounterCost, real: p.RealCompute, extra: counterStateBytes}
}

func (o *counter) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *counter) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	f, ok := t.Value.(Frame)
	if !ok {
		return fmt.Errorf("counter: unexpected payload %T", t.Value)
	}
	count := f.Planted
	if o.real && f.Image != nil {
		count = vision.CountFaces(f.Image)
	}
	if count < len(o.hist) {
		o.hist[count]++
	}
	o.frames++
	out := ctx.Clone(t)
	out.Kind = "count"
	out.Size = countTupleBytes
	out.Value = float64(count)
	ctx.Emit(out)
	return nil
}

func (o *counter) Snapshot() ([]byte, error) {
	buf := make([]byte, 0, 8*(len(o.hist)+1))
	var tmp [8]byte
	for _, h := range o.hist {
		binary.BigEndian.PutUint64(tmp[:], h)
		buf = append(buf, tmp[:]...)
	}
	binary.BigEndian.PutUint64(tmp[:], o.frames)
	return append(buf, tmp[:]...), nil
}

func (o *counter) Restore(data []byte) error {
	if len(data) < 8*(len(o.hist)+1) {
		return fmt.Errorf("bcp: short counter state")
	}
	for i := range o.hist {
		o.hist[i] = binary.BigEndian.Uint64(data[i*8:])
	}
	o.frames = binary.BigEndian.Uint64(data[len(o.hist)*8:])
	return nil
}

func (o *counter) StateSize() int { return 8*(len(o.hist)+1) + o.extra }

// boardModel (B) windows recent waiting counts into a boarding estimate.
type boardModel struct {
	operator.Base
	cost   time.Duration
	extra  int
	window []float64
	emit   uint64
	delta  operator.DeltaTracker
}

func newBoardModel(p Params) *boardModel {
	return &boardModel{Base: operator.Base{Name: "B"}, cost: modelCost, extra: boardStateBytes}
}

func (o *boardModel) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *boardModel) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	c, _ := t.Value.(float64)
	o.window = append(o.window, c)
	if len(o.window) > 16 {
		o.window = o.window[1:]
	}
	var sum float64
	for _, v := range o.window {
		sum += v
	}
	o.emit++
	out := ctx.Clone(t)
	out.Kind = "board"
	out.Size = countTupleBytes
	out.Value = sum / float64(len(o.window))
	ctx.Emit(out)
	return nil
}

func (o *boardModel) Snapshot() ([]byte, error) {
	buf := putF64(nil, float64(len(o.window)))
	for _, v := range o.window {
		buf = putF64(buf, v)
	}
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], o.emit)
	return append(buf, tmp[:]...), nil
}

func (o *boardModel) Restore(data []byte) error {
	nf, off, err := getF64(data, 0)
	if err != nil {
		return err
	}
	n := int(nf)
	o.window = o.window[:0]
	for i := 0; i < n; i++ {
		var v float64
		if v, off, err = getF64(data, off); err != nil {
			return err
		}
		o.window = append(o.window, v)
	}
	if off+8 > len(data) {
		return fmt.Errorf("bcp: short B state")
	}
	o.emit = binary.BigEndian.Uint64(data[off:])
	return nil
}

func (o *boardModel) StateSize() int { return 8*(len(o.window)+2) + o.extra }

// latestJoin (J) matches the bus path's arrival (A) and alighting (L)
// tuples by bus sequence and attaches the most recent boarding estimate
// from B — the camera path runs at frame rate, the bus path at bus rate.
type latestJoin struct {
	operator.Base
	cost        time.Duration
	eta         map[uint64]*tuple.Tuple
	alight      map[uint64]float64
	latestBoard float64
	haveBoard   bool
	// Last joined bus context: the app publishes a refreshed prediction
	// on every boarding update (frame rate), not only on bus arrivals —
	// users watch a live display (§II-B).
	lastSeq    uint64
	lastOn     float64
	lastAlight float64
	haveBus    bool
	delta      operator.DeltaTracker
}

func newLatestJoin(p Params) *latestJoin {
	return &latestJoin{
		Base: operator.Base{Name: "J"}, cost: modelCost,
		eta: make(map[uint64]*tuple.Tuple), alight: make(map[uint64]float64),
	}
}

func (o *latestJoin) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *latestJoin) Process(ctx *operator.Context, from string, t *tuple.Tuple) error {
	switch from {
	case "B":
		o.latestBoard, _ = t.Value.(float64)
		o.haveBoard = true
		if !o.haveBus {
			return nil
		}
		// Frame-rate refresh: re-predict for the last known bus with
		// the new boarding estimate. The output keeps the camera
		// tuple's identity, so end-to-end latency measures the camera
		// path.
		out := ctx.Clone(t)
		out.Kind = "joined"
		out.Size = predTupleBytes
		out.Value = Prediction{BusSeq: o.lastSeq, OnBoard: o.lastOn, Board: o.latestBoard, Alight: o.lastAlight}
		ctx.Emit(out)
		return nil
	case "A":
		o.eta[t.Seq] = t
	case "L":
		o.alight[t.Seq], _ = t.Value.(float64)
	default:
		return fmt.Errorf("J: unexpected upstream %q", from)
	}
	etaT, okA := o.eta[t.Seq]
	alight, okL := o.alight[t.Seq]
	if !okA || !okL {
		return nil
	}
	delete(o.eta, t.Seq)
	delete(o.alight, t.Seq)
	info, _ := etaT.Value.(BusInfo)
	o.lastSeq, o.lastOn, o.lastAlight, o.haveBus = t.Seq, info.OnBoard, alight, true
	out := ctx.Clone(etaT)
	out.Kind = "joined"
	out.Size = predTupleBytes
	out.Value = Prediction{BusSeq: t.Seq, OnBoard: info.OnBoard, Board: o.latestBoard, Alight: alight}
	ctx.Emit(out)
	return nil
}

func (o *latestJoin) Snapshot() ([]byte, error) {
	buf := putF64(nil, o.latestBoard)
	flag := 0.0
	if o.haveBoard {
		flag = 1
	}
	if o.haveBus {
		flag += 2
	}
	buf = putF64(buf, flag)
	buf = putF64(buf, float64(o.lastSeq))
	buf = putF64(buf, o.lastOn)
	buf = putF64(buf, o.lastAlight)
	// Serialise both windows in ascending sequence order: deterministic
	// bytes keep delta patches small and chain restores byte-comparable
	// to full-blob restores.
	buf = putF64(buf, float64(len(o.eta)))
	for _, seq := range sortedKeys(o.eta) {
		buf = putF64(buf, float64(seq))
		info, _ := o.eta[seq].Value.(BusInfo)
		buf = putF64(buf, info.OnBoard)
	}
	buf = putF64(buf, float64(len(o.alight)))
	for _, seq := range sortedKeys(o.alight) {
		buf = putF64(buf, float64(seq))
		buf = putF64(buf, o.alight[seq])
	}
	return buf, nil
}

// sortedKeys returns a map's sequence keys in ascending order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	seqs := make([]uint64, 0, len(m))
	for s := range m {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func (o *latestJoin) Restore(data []byte) error {
	o.eta = make(map[uint64]*tuple.Tuple)
	o.alight = make(map[uint64]float64)
	v, off, err := getF64(data, 0)
	if err != nil {
		return err
	}
	o.latestBoard = v
	var flag float64
	if flag, off, err = getF64(data, off); err != nil {
		return err
	}
	o.haveBoard = int(flag)&1 != 0
	o.haveBus = int(flag)&2 != 0
	var seqF float64
	if seqF, off, err = getF64(data, off); err != nil {
		return err
	}
	o.lastSeq = uint64(seqF)
	if o.lastOn, off, err = getF64(data, off); err != nil {
		return err
	}
	if o.lastAlight, off, err = getF64(data, off); err != nil {
		return err
	}
	var n float64
	if n, off, err = getF64(data, off); err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		var seq, ob float64
		if seq, off, err = getF64(data, off); err != nil {
			return err
		}
		if ob, off, err = getF64(data, off); err != nil {
			return err
		}
		o.eta[uint64(seq)] = &tuple.Tuple{Seq: uint64(seq), Size: busTupleBytes, Value: BusInfo{OnBoard: ob}}
	}
	if n, off, err = getF64(data, off); err != nil {
		return err
	}
	for i := 0; i < int(n); i++ {
		var seq, al float64
		if seq, off, err = getF64(data, off); err != nil {
			return err
		}
		if al, off, err = getF64(data, off); err != nil {
			return err
		}
		o.alight[uint64(seq)] = al
	}
	return nil
}

func (o *latestJoin) StateSize() int { return 48 + 16*(len(o.eta)+len(o.alight)) }

// capacityModel (P) computes the final prediction: on-board plus boarding
// minus alighting, clamped at zero.
type capacityModel struct {
	operator.Base
	cost  time.Duration
	n     uint64
	delta operator.DeltaTracker
}

func newCapacityModel(p Params) *capacityModel {
	return &capacityModel{Base: operator.Base{Name: "P"}, cost: modelCost}
}

func (o *capacityModel) Cost(*tuple.Tuple) time.Duration { return o.cost }

func (o *capacityModel) Process(ctx *operator.Context, _ string, t *tuple.Tuple) error {
	pred, ok := t.Value.(Prediction)
	if !ok {
		return fmt.Errorf("P: unexpected payload %T", t.Value)
	}
	pred.OnBoard = math.Max(0, pred.OnBoard+pred.Board-pred.Alight)
	o.n++
	out := ctx.Clone(t)
	out.Kind = "prediction"
	out.Size = predTupleBytes
	out.Value = pred
	ctx.Emit(out)
	return nil
}

func (o *capacityModel) Snapshot() ([]byte, error) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], o.n)
	return buf[:], nil
}

func (o *capacityModel) Restore(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bcp: short P state")
	}
	o.n = binary.BigEndian.Uint64(data)
	return nil
}

func (*capacityModel) StateSize() int { return 8 }

// Incremental checkpointing: every BCP operator exposes delta snapshots via
// the serialised-state diff tracker. The model operators' states are a few
// dozen bytes, so their deltas are near-free; the counter and board-model
// windows carry modelled auxiliary state (counterStateBytes/boardStateBytes)
// that is static between checkpoints and therefore absent from deltas —
// exactly the saving incremental checkpointing exists for.

func (o *noiseFilter) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *noiseFilter) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *arrivalModel) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *arrivalModel) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *alightModel) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *alightModel) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *motionDetect) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *motionDetect) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *counter) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *counter) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *boardModel) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *boardModel) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *latestJoin) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *latestJoin) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }

func (o *capacityModel) SnapshotDelta(since uint64) ([]byte, bool) {
	return o.delta.Delta(since, o.Snapshot)
}
func (o *capacityModel) MarkSnapshot(v uint64) { o.delta.Mark(v, o.Snapshot) }
