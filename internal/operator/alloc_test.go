package operator

import (
	"testing"
	"time"

	"mobistreams/internal/tuple"
)

// lastRuntime keeps only the latest emission, so driving an operator
// through it allocates nothing of its own.
type lastRuntime struct{ last *tuple.Tuple }

func (r *lastRuntime) Emit(t *tuple.Tuple)                  { r.last = t }
func (r *lastRuntime) EmitTo(_ string, t *tuple.Tuple) bool { r.last = t; return true }
func (*lastRuntime) Now() time.Duration                     { return 0 }
func (*lastRuntime) SetTimer(time.Duration) bool            { return false }

// Aggregate carves its emitted means' boxes, like its output tuples, from
// arrays it owns: once every key has its accumulator, a tuple costs a
// fraction of an allocation, not the one box per mean a plain conversion
// makes.
func TestAggregateAllocsAmortised(t *testing.T) {
	agg := NewAggregate("sum")
	rt := &lastRuntime{}
	ctx := NewContext(rt)
	keys := []string{"a", "b", "c", "d"}
	ins := make([]*tuple.Tuple, len(keys))
	for i, k := range keys {
		ins[i] = &tuple.Tuple{Seq: uint64(i), Kind: k, Size: 8, Value: 1000.25}
	}
	const n = 3300
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			if err := agg.Process(ctx, "", ins[i%len(ins)]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got, ok := rt.last.Value.(float64); !ok || got != 1000.25 {
		t.Fatalf("last mean = %v, want 1000.25", rt.last.Value)
	}
	if per := allocs / n; per > 0.1 {
		t.Fatalf("Aggregate allocated %.3f per tuple over %d tuples, want <= 0.1", per, n)
	}
}
