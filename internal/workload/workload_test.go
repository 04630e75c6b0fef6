package workload

import (
	"sync"
	"testing"
	"time"

	"mobistreams/internal/apps/bcp"
	"mobistreams/internal/apps/signalguru"
	"mobistreams/internal/clock"
	"mobistreams/internal/vision"
)

type capture struct {
	mu    sync.Mutex
	items []struct {
		src  string
		kind string
		size int
		val  interface{}
	}
}

func (c *capture) push(src string, v interface{}, size int, kind string) {
	c.mu.Lock()
	c.items = append(c.items, struct {
		src  string
		kind string
		size int
		val  interface{}
	}{src, kind, size, v})
	c.mu.Unlock()
}

func (c *capture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func TestBCPCameraFeed(t *testing.T) {
	clk := clock.NewScaled(500)
	g := NewGenerator(clk)
	var c capture
	g.StartBCPCamera(c.push, BCPCameraConfig{Period: time.Second, Seed: 1})
	clk.Sleep(12 * time.Second)
	g.Stop()
	n := c.count()
	if n < 7 || n > 13 {
		t.Fatalf("frames in 12s at 1/s = %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, it := range c.items {
		if it.src != "S1" || it.kind != "image" {
			t.Fatalf("bad item: %+v", it)
		}
		if it.size != 180<<10 {
			t.Fatalf("wire size = %d", it.size)
		}
		f, ok := it.val.(bcp.Frame)
		if !ok {
			t.Fatalf("payload %T", it.val)
		}
		if f.Image != nil {
			t.Fatal("real images off by default")
		}
	}
}

func TestBCPCameraRealImages(t *testing.T) {
	clk := clock.NewScaled(500)
	g := NewGenerator(clk)
	var c capture
	g.StartBCPCamera(c.push, BCPCameraConfig{Period: time.Second, RealImages: true, Seed: 2})
	clk.Sleep(3 * time.Second)
	g.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.items) == 0 {
		t.Fatal("no frames")
	}
	f := c.items[0].val.(bcp.Frame)
	if f.Image == nil {
		t.Fatal("no image rendered")
	}
	if got := vision.CountFaces(f.Image); got != f.Planted {
		t.Fatalf("vision count %d != planted %d", got, f.Planted)
	}
}

func TestBCPBusCorruption(t *testing.T) {
	clk := clock.NewScaled(500)
	g := NewGenerator(clk)
	var c capture
	g.StartBCPBus(c.push, BCPBusConfig{Period: time.Second, CorruptEvery: 3, Seed: 3})
	// Wait for nine readings in wall time: a slow host may fall behind the
	// scaled clock, but it must not yield fewer readings to judge.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := len(c.items)
		c.mu.Unlock()
		if n >= 9 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d readings in 10 s of wall time, want 9", n)
		}
	}
	g.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Reading i is corrupt exactly when i%3 == 2: one in three.
	for i, it := range c.items {
		if got, want := it.val.(bcp.BusInfo).Corrupt, i%3 == 2; got != want {
			t.Fatalf("reading %d of %d: corrupt = %v, want %v", i, len(c.items), got, want)
		}
	}
}

func TestSGCameraPhases(t *testing.T) {
	clk := clock.NewScaled(500)
	g := NewGenerator(clk)
	var c capture
	g.StartSGCamera(c.push, SGCameraConfig{Period: time.Second, PhaseLen: 3, Seed: 4})
	clk.Sleep(20 * time.Second)
	g.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.items) < 12 {
		t.Fatalf("frames = %d", len(c.items))
	}
	// The colour must cycle red -> green -> yellow every 3 frames.
	seen := map[vision.LightColor]bool{}
	for i, it := range c.items {
		f := it.val.(signalguru.Frame)
		want := []vision.LightColor{vision.Red, vision.Green, vision.Yellow}[(i/3)%3]
		if f.Truth != want {
			t.Fatalf("frame %d colour = %v, want %v", i, f.Truth, want)
		}
		seen[f.Truth] = true
	}
	if len(seen) != 3 {
		t.Fatalf("colours seen = %v", seen)
	}
}

func TestSGUpstreamFeed(t *testing.T) {
	clk := clock.NewScaled(500)
	g := NewGenerator(clk)
	var c capture
	g.StartSGUpstream(c.push, SGUpstreamConfig{Period: time.Second, Seed: 5})
	// 20 simulated seconds is 40 ms of wall time at speedup 500; a
	// shorter window can close before the generator's first tick fires
	// when timer wake-ups overshoot on a busy host.
	clk.Sleep(20 * time.Second)
	g.Stop()
	if c.count() == 0 {
		t.Fatal("no advisories")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[0].val.(signalguru.Advisory); !ok {
		t.Fatalf("payload %T", c.items[0].val)
	}
}

func TestGeneratorStopIsIdempotent(t *testing.T) {
	g := NewGenerator(clock.NewScaled(500))
	g.Stop()
	g.Stop()
}
