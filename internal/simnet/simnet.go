// Package simnet simulates the two networks a MobiStreams deployment runs
// on: the per-region ad-hoc WiFi (a single shared-airtime broadcast medium
// with lossy UDP and reliable TCP-like unicast) and the cellular network
// (asymmetric per-device uplink/downlink).
//
// The WiFi medium is the performance-critical substrate: the paper's central
// claims (dist-n checkpointing congesting the region, UDP broadcast
// amortising checkpoint persistence across all peers) are consequences of
// every transmission in a region sharing the same 1–5 Mbps of airtime. The
// medium is modelled with a busy-until reservation: a transmission of B
// bytes reserves B/bandwidth of airtime starting at max(now, busyUntil), and
// the sender sleeps (in simulated time) until its reservation completes.
// A broadcast delivers one inbox message per airtime reservation per
// receiver (see Datagrams); loss and Endpoint.Drops count datagrams.
package simnet

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// NodeID identifies a phone, a server, or the controller.
type NodeID string

// Class tags traffic so experiments can account bytes by purpose (Fig. 10b).
type Class int

const (
	// ClassData is application tuples flowing along graph edges.
	ClassData Class = iota
	// ClassReplication is duplicated tuples sent to standby replicas
	// (rep-2 scheme).
	ClassReplication
	// ClassCheckpoint is checkpoint state blocks (broadcast or unicast).
	ClassCheckpoint
	// ClassBitmap is broadcast bitmap queries and responses.
	ClassBitmap
	// ClassControl is controller traffic: pings, registrations, reports.
	ClassControl
	// ClassRecovery is recovery-time traffic: state reloads, replays.
	ClassRecovery
	// ClassCode is operator code shipped by the controller at placement
	// and recovery time.
	ClassCode
	// ClassTransfer is departure-time state transfer over cellular.
	ClassTransfer
	// ClassPreserve is source-preservation replication: sources
	// broadcasting admitted input so every node holds the replay log.
	ClassPreserve

	numClasses
)

var classNames = [...]string{"data", "replication", "checkpoint", "bitmap", "control", "recovery", "code", "transfer", "preserve"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// errUnreachable is returned when the destination has failed, departed the
// region, or was never attached. Upstream neighbours use it to detect
// downstream failures (§III-D).
var errUnreachable = errors.New("simnet: destination unreachable")

// Message is what endpoints receive.
type Message struct {
	From, To NodeID
	Class    Class
	// Size is the payload's wire size; for a broadcast burst, the summed
	// size of the datagrams it carries.
	Size    int
	Payload interface{}
	// Reply, when non-nil, is where the receiver should deliver its
	// response (via the network's Respond, which charges airtime).
	Reply chan Message
}

// Endpoint is a node's network attachment point. One endpoint serves both
// WiFi and cellular: handlers dispatch on Message.Class.
type Endpoint struct {
	ID    NodeID
	inbox chan Message
	drops int64 // datagrams lost to a full inbox

	sealed atomic.Bool
}

// DefaultInbox is NewEndpoint's capacity for a non-positive request, and
// the region's and controller's: a burst takes one slot per reservation.
const DefaultInbox = 1024

// NewEndpoint creates an endpoint with the given inbox capacity.
func NewEndpoint(id NodeID, capacity int) *Endpoint {
	if capacity <= 0 {
		capacity = DefaultInbox
	}
	return &Endpoint{ID: id, inbox: make(chan Message, capacity)}
}

// Inbox returns the receive channel.
func (e *Endpoint) Inbox() <-chan Message { return e.inbox }

// Seal marks the endpoint dead: subsequent deliveries fail. Used when a
// phone fails; pending messages remain readable so in-flight goroutines can
// drain before shutdown.
func (e *Endpoint) Seal() { e.sealed.Store(true) }

// offer places m, which carries grams datagrams, in the inbox without
// waiting; a full inbox drops it (UDP semantics) and counts grams drops.
func (e *Endpoint) offer(m Message, grams int) bool {
	if e.sealed.Load() {
		return false
	}
	select {
	case e.inbox <- m:
		return true
	default:
		atomic.AddInt64(&e.drops, int64(grams))
		return false
	}
}

// Drops reports how many UDP datagrams this endpoint lost to a full inbox,
// counting every datagram of a dropped burst. Sealed-endpoint rejections
// are not counted: those are failures, not overflow. The region report
// surfaces the regional sum, so receiver-side overload is visible instead
// of silently thinning broadcast traffic.
func (e *Endpoint) Drops() int64 { return atomic.LoadInt64(&e.drops) }

// counters accumulates bytes and message counts by traffic class. The
// accumulators are lock-free: every data-plane send passes through add, so
// a shared mutex here becomes contention on the ingress hot path.
type counters struct {
	bytes [numClasses]int64
	msgs  [numClasses]int64
}

// add records one message of the given class and size.
func (c *counters) add(class Class, size int) {
	atomic.AddInt64(&c.bytes[class], int64(size))
	atomic.AddInt64(&c.msgs[class], 1)
}

// Bytes reports accumulated bytes for a class.
func (c *counters) Bytes(class Class) int64 {
	return atomic.LoadInt64(&c.bytes[class])
}

// Messages reports accumulated message count for a class.
func (c *counters) Messages(class Class) int64 {
	return atomic.LoadInt64(&c.msgs[class])
}

// TotalBytes reports bytes summed over all classes.
func (c *counters) TotalBytes() int64 {
	var t int64
	for i := range c.bytes {
		t += atomic.LoadInt64(&c.bytes[i])
	}
	return t
}
