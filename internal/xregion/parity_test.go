package xregion

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/simnet"
	"mobistreams/internal/wire"
)

const (
	testSeed   = 42
	testTuples = 60
	testTokens = 10 // a token (and a checkpoint) every 10 tuples
)

func testSpec() Spec { return Spec{Seed: testSeed, Tuples: testTuples, TokenEvery: testTokens} }

func runSimOnce(t *testing.T) *Result {
	t.Helper()
	res, err := RunSim(testSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runTCP runs the region over real TCP on loopback: lead and two workers
// on their own sockets, exactly as separate msrun processes would run
// them, just sharing a test binary.
func runTCP(t *testing.T) *Result {
	t.Helper()
	s, err := ListenLead("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	leadAddr := s.Info().Addr

	workerCh := make(chan error, 2)
	for _, id := range []simnet.NodeID{"w1", "w2"} {
		go func(id simnet.NodeID) {
			workerCh <- RunWorkerTCP(id, "127.0.0.1:0", leadAddr)
		}(id)
	}

	res, err := RunLeadOn(s, testSpec(), 2, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-workerCh; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	return res
}

// TestSimRegionRuns is the smoke test: the simulated backend produces the
// full blob set and all sink outputs.
func TestSimRegionRuns(t *testing.T) {
	res := runSimOnce(t)
	if want := testSpec().versions() * len(pipeline); len(res.Blobs) != want {
		t.Fatalf("%d blobs, want %d", len(res.Blobs), want)
	}
	if res.SinkOuts != testTuples {
		t.Fatalf("%d sink outputs, want %d", res.SinkOuts, testTuples)
	}
	if res.SinkDigest == "" {
		t.Fatal("empty sink digest")
	}
	// Every blob frame decodes and passes its CRC.
	for key, frame := range res.Blobs {
		b, err := wire.DecodeBlob(frame)
		if err != nil {
			t.Fatalf("blob %s: %v", key, err)
		}
		if !b.VerifyCRC() {
			t.Fatalf("blob %s: CRC mismatch", key)
		}
	}
}

// TestSimDeterministic: two independent sim runs on the same seed are
// byte-identical — the precondition for cross-backend parity to mean
// anything.
func TestSimDeterministic(t *testing.T) {
	a, b := runSimOnce(t), runSimOnce(t)
	assertSameResult(t, a, b, "sim run 1", "sim run 2")
}

// TestSocketSimBlobParity is the headline cross-backend claim: a region
// over real TCP sockets produces byte-identical checkpoint blobs and an
// identical sink output stream to the simulated region on the same seed.
func TestSocketSimBlobParity(t *testing.T) {
	sim := runSimOnce(t)
	tcp := runTCP(t)
	assertSameResult(t, sim, tcp, "simnet", "tcp")
}

func assertSameResult(t *testing.T, a, b *Result, an, bn string) {
	t.Helper()
	if a.SinkOuts != b.SinkOuts {
		t.Fatalf("sink outputs: %s=%d %s=%d", an, a.SinkOuts, bn, b.SinkOuts)
	}
	if a.SinkDigest != b.SinkDigest {
		t.Fatalf("sink digests differ: %s=%s %s=%s", an, a.SinkDigest, bn, b.SinkDigest)
	}
	if len(a.Blobs) != len(b.Blobs) {
		t.Fatalf("blob counts: %s=%d %s=%d", an, len(a.Blobs), bn, len(b.Blobs))
	}
	keys := make([]string, 0, len(a.Blobs))
	for k := range a.Blobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bf, ok := b.Blobs[k]
		if !ok {
			t.Fatalf("blob %s present in %s, missing in %s", k, an, bn)
		}
		if !bytes.Equal(a.Blobs[k], bf) {
			t.Fatalf("blob %s differs between %s and %s (%d vs %d bytes)", k, an, bn, len(a.Blobs[k]), len(bf))
		}
	}
}

// runTCPSpec runs the socket backend with an explicit spec and worker
// count (runTCP's generalisation for the tracing tests).
func runTCPSpec(t *testing.T, spec Spec, nWorkers int) *Result {
	t.Helper()
	s, err := ListenLead("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	leadAddr := s.Info().Addr

	workerCh := make(chan error, nWorkers)
	for i := 1; i <= nWorkers; i++ {
		go func(id simnet.NodeID) {
			workerCh <- RunWorkerTCP(id, "127.0.0.1:0", leadAddr)
		}(simnet.NodeID(fmt.Sprintf("w%d", i)))
	}

	res, err := RunLeadOn(s, spec, nWorkers, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nWorkers; i++ {
		if werr := <-workerCh; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	return res
}

// traceStructures flattens a result's waterfalls into "id: structure"
// lines — the timing-free view both backends must agree on.
func traceStructures(res *Result) []string {
	out := make([]string, 0, len(res.Traces))
	for _, w := range res.Traces {
		out = append(out, fmt.Sprintf("%d: %s", w.Trace, w.Structure()))
	}
	return out
}

// TestTraceParitySimVsSocket: a fixed-seed run with sampled tracing yields
// the identical span structure — same traces, same hop kinds in the same
// order at the same slots — on the simulated backend and on a
// three-process socket region.
func TestTraceParitySimVsSocket(t *testing.T) {
	spec := testSpec()
	spec.SampleEvery = 10
	sim, err := RunSim(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	tcp := runTCPSpec(t, spec, 3)

	if len(sim.Traces) == 0 {
		t.Fatal("sim run recorded no traces")
	}
	a, b := traceStructures(sim), traceStructures(tcp)
	if len(a) != len(b) {
		t.Fatalf("trace counts differ: sim=%d tcp=%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace structure %d differs:\n  sim: %s\n  tcp: %s", i, a[i], b[i])
		}
	}
	// Every traced tuple that survived to the sink must show the full
	// causal chain, starting at ingest.
	for _, w := range sim.Traces {
		if w.Hops[0].Kind != obs.SpanIngest {
			t.Fatalf("trace %d does not start at ingest: %s", w.Trace, w.Structure())
		}
	}
}

// TestTraceSimDeterministic: two traced sim runs agree exactly (the
// precondition for the cross-backend comparison above to be meaningful).
func TestTraceSimDeterministic(t *testing.T) {
	spec := testSpec()
	spec.SampleEvery = 5
	a, err := RunSim(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := traceStructures(a), traceStructures(b)
	if len(sa) == 0 {
		t.Fatal("no traces recorded")
	}
	if len(sa) != len(sb) {
		t.Fatalf("trace counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("structure %d differs:\n  a: %s\n  b: %s", i, sa[i], sb[i])
		}
	}
}

// TestBlobChainRestores: the collected blobs are not just byte-stable but
// usable — the final version restores into fresh operators.
func TestBlobChainRestores(t *testing.T) {
	res := runSimOnce(t)
	last := uint64(testSpec().versions())
	for _, s := range pipeline {
		frame := res.Blobs[fmt.Sprintf("%s@%d", s.Slot, last)]
		if frame == nil {
			t.Fatalf("missing final blob for %s", s.Slot)
		}
		blob, err := wire.DecodeBlob(frame)
		if err != nil {
			t.Fatal(err)
		}
		op, err := newOp(s.Op, s.Slot)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.RestoreBlob(blob, []operator.Operator{op}); err != nil {
			t.Fatalf("restore %s: %v", s.Slot, err)
		}
	}
}
