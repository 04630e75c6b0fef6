//go:build linux

package clock

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// parkFloor is the shortest wall wait worth a timer: below it the
	// poller's wake-up latency (6–15 µs on a 2-vCPU VM) would be most of
	// the wait.
	parkFloor = 30 * time.Microsecond
	// parkTail is how long before the deadline a parked wait wakes, to spin
	// the rest against the wall clock. It covers the usual wake-up latency,
	// so a parked wait returns late only when the host is busy.
	parkTail = 15 * time.Microsecond
)

// parkUntilReal returns once the wall clock passes deadline. A wait of at
// least parkFloor parks on a pooled timerfd for all but its last parkTail;
// the rest, or all of it when no timerfd opens, is sleepUntilReal's.
func parkUntilReal(deadline time.Time) {
	if rem := time.Until(deadline); rem >= parkFloor {
		if p := getParker(); p != nil {
			if p.wait(rem - parkTail) {
				putParker(p)
			} else {
				p.f.Close()
			}
		}
	}
	sleepUntilReal(deadline)
}

// parker is a non-blocking timerfd on the runtime poller: a read parks the
// goroutine until the timer fires. Its timer setting and read buffer live
// in the struct, so a pooled parker waits without allocating.
type parker struct {
	f    *os.File
	fd   uintptr // f's descriptor; f.Fd() would switch it to blocking mode
	spec struct{ interval, value syscall.Timespec }
	buf  [8]byte
}

// parkers is the free list of idle parkers. It grows to the largest number
// of goroutines ever parked at once and never shrinks: unlike a sync.Pool,
// a collection cycle does not close descriptors that the next park reopens.
var parkers struct {
	mu   sync.Mutex
	free []*parker
}

func getParker() *parker {
	parkers.mu.Lock()
	if n := len(parkers.free); n > 0 {
		p := parkers.free[n-1]
		parkers.free = parkers.free[:n-1]
		parkers.mu.Unlock()
		return p
	}
	parkers.mu.Unlock()
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil // out of descriptors: the caller spins instead
	}
	return &parker{f: os.NewFile(fd, "timerfd"), fd: fd}
}

func putParker(p *parker) {
	parkers.mu.Lock()
	parkers.free = append(parkers.free, p)
	parkers.mu.Unlock()
}

// wait arms the timer d from now and blocks until it fires. Arming resets
// the expiry count, so a previous wait's unread expiry cannot end this one
// early. It reports false if the parker failed and must be discarded.
func (p *parker) wait(d time.Duration) bool {
	p.spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&p.spec)), 0, 0, 0); errno != 0 {
		return false
	}
	_, err := p.f.Read(p.buf[:])
	return err == nil
}
