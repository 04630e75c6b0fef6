package transport

import (
	"errors"
	"fmt"
	"testing"

	"mobistreams/internal/simnet"
)

func TestMemTellOrderedAndCounted(t *testing.T) {
	mesh := NewMesh(1)
	a := mesh.Attach("a")
	b := mesh.Attach("b")
	var got []string
	b.Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
		got = append(got, string(frame))
	})
	for i := 0; i < 10; i++ {
		if err := a.Tell("b", simnet.ClassControl, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := mesh.Drain(); n != 10 {
		t.Fatalf("delivered %d, want 10", n)
	}
	for i, s := range got {
		if want := fmt.Sprintf("m%d", i); s != want {
			t.Fatalf("frame %d = %q, want %q", i, s, want)
		}
	}
}

// TestMemHandlerReentrancy: a handler that sends in turn must not deadlock,
// and its frames drain in the same Drain call.
func TestMemHandlerReentrancy(t *testing.T) {
	mesh := NewMesh(1)
	a := mesh.Attach("a")
	b := mesh.Attach("b")
	c := mesh.Attach("c")
	var final []byte
	b.Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
		b.Tell("c", class, append(frame, '!'))
	})
	c.Receive(func(from simnet.NodeID, class simnet.Class, frame []byte) {
		final = frame
	})
	if err := a.Tell("b", simnet.ClassControl, []byte("hop")); err != nil {
		t.Fatal(err)
	}
	if n := mesh.Drain(); n != 2 {
		t.Fatalf("delivered %d, want 2", n)
	}
	if string(final) != "hop!" {
		t.Fatalf("relayed frame = %q", final)
	}
}

func TestMemUnknownPeerAndClose(t *testing.T) {
	mesh := NewMesh(1)
	a := mesh.Attach("a")
	if err := a.Tell("ghost", simnet.ClassData, []byte("x")); !errors.Is(err, errUnknownPeer) {
		t.Fatalf("tell to unknown peer: %v", err)
	}
	a.Close()
	if err := a.Tell("a", simnet.ClassData, []byte("x")); !errors.Is(err, errClosed) {
		t.Fatalf("tell after close: %v", err)
	}
}
