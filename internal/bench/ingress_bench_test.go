package bench

import (
	"fmt"
	"testing"

	"mobistreams/internal/node"
	"mobistreams/internal/tuple"
)

// TestIngressBatchingThroughput is the tentpole acceptance check: with
// edge batching on, the single-edge pipeline must sustain at least 2x the
// unbatched tuple throughput in simulated time (per-frame medium overhead
// amortised across coalesced sends), delivering every tuple in order.
func TestIngressBatchingThroughput(t *testing.T) {
	const n = 400
	// Race instrumentation inflates the scaled clock's sleep overshoot,
	// which leaks wall time into the simulated results; keep the hard
	// ratio for uninstrumented builds only.
	want := 2.0
	if raceEnabled {
		want = 1.2
	}
	// The two runs pace simulated time against the wall clock back to
	// back, so CPU contention from sibling test packages can starve one
	// run's flush timers and compress the ratio. Retry before declaring a
	// regression — a genuine batching regression fails every attempt, a
	// scheduling stall does not. Correctness checks (full delivery, FIFO
	// order, real coalescing) stay hard on every attempt.
	const attempts = 3
	var lastErr string
	for i := 0; i < attempts; i++ {
		base, err := RunIngress(IngressConfig{Tuples: n, QoS: node.QoS{DisableBatching: true}})
		if err != nil {
			t.Fatal(err)
		}
		var seqs []uint64
		batched, err := RunIngress(IngressConfig{
			Tuples:   n,
			OnOutput: func(tp *tuple.Tuple) { seqs = append(seqs, tp.Seq) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if base.Delivered != n || batched.Delivered != n {
			t.Fatalf("delivered base=%d batched=%d, want %d", base.Delivered, batched.Delivered, n)
		}
		if len(seqs) != n {
			t.Fatalf("observed %d outputs, want %d", len(seqs), n)
		}
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("output %d has seq %d: batching broke edge FIFO order", i, s)
			}
		}
		if batched.MeanBatch < 2 {
			t.Fatalf("mean batch = %.1f, batching never coalesced", batched.MeanBatch)
		}
		ratio := batched.SimTuplesPerSec / base.SimTuplesPerSec
		t.Logf("attempt %d: unbatched %.0f t/s, batched %.0f t/s (%.2fx, mean batch %.1f)",
			i+1, base.SimTuplesPerSec, batched.SimTuplesPerSec, ratio, batched.MeanBatch)
		if ratio >= want {
			return
		}
		lastErr = fmt.Sprintf("batched/unbatched throughput = %.2fx, want >= %.1fx", ratio, want)
	}
	t.Fatal(lastErr)
}

func benchIngress(b *testing.B, qos node.QoS) {
	b.Helper()
	res, err := RunIngress(IngressConfig{Tuples: b.N, QoS: qos})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.SimTuplesPerSec, "sim_tuples/s")
	if res.Flushes > 0 {
		b.ReportMetric(res.MeanBatch, "msgs/batch")
	}
}

// BenchmarkIngressUnbatched measures the per-message delivery path: every
// emission is its own network send.
func BenchmarkIngressUnbatched(b *testing.B) {
	benchIngress(b, node.QoS{DisableBatching: true})
}

// BenchmarkIngressBatched measures the coalesced delivery path (default
// batching bounds).
func BenchmarkIngressBatched(b *testing.B) {
	benchIngress(b, node.QoS{})
}
