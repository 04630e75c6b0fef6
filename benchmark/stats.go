package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// t0 anchors harness time at process start; every span and latency in the
// benchmark is nanoseconds since it.
var t0 = time.Now()

func now() int64 { return int64(time.Since(t0)) }

// pause blocks the calling thread for d nanoseconds in nanosleep(2). The
// generator uses it instead of time.Sleep: an idle Go scheduler rounds timer
// waits up to a millisecond, which would make a 40k t/s schedule run late,
// and the alternative of spinning would take a core from the system under
// test.
func pause(d int64) {
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil) // an early return (EINTR) only shortens one wait
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func meanInt64(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}

// cpuNs is the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procLedger records the process-wide rows of the ledger.
func procLedger(l ledger) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["proc.gc_cycles"] = float64(ms.NumGC)
	l["proc.gc_pause_ms_total"] = float64(ms.PauseTotalNs) / 1e6
	l["proc.heap_inuse_mb_end"] = float64(ms.HeapInuse) / (1 << 20)
	l["proc.peak_rss_mb"] = peakRSSMB()
}

// settledGoroutines waits (up to a second) for goroutines that are already
// on their way out — clock.After sleepers, closed socket readers — and
// reports how many remain.
func settledGoroutines(baseline int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// childProcesses lists live processes whose parent is this one. The
// benchmark starts none, so anything listed is a leak.
func childProcesses() []int {
	self := os.Getpid()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var kids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == self {
			continue
		}
		data, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name: state ppid pgrp ...
		s := string(data)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		if f := strings.Fields(s[i+1:]); len(f) >= 2 {
			if ppid, _ := strconv.Atoi(f[1]); ppid == self {
				kids = append(kids, pid)
			}
		}
	}
	return kids
}
