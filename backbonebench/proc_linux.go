//go:build linux

package main

import (
	"os"
	"runtime/debug"
	"syscall"
	"time"
)

// sleep blocks the calling thread in nanosleep. Go's own timers wake
// through the network poller at millisecond granularity (about 0.5 ms
// late at the median on Linux), which would add that much to every
// open-loop latency; nanosleep wakes within about 0.2 ms at the 99th
// percentile without spinning. A signal may end it early; callers loop
// until their deadline.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// childProcAttr makes the kernel kill a started daemon when the
// benchmark itself dies, so no daemon outlives its run.
func childProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSMB reads the peak resident set out of a process's rusage, in
// MiB (ru_maxrss is in KiB on Linux).
func peakRSSMB(usage any) float64 {
	r, ok := usage.(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(r.Maxrss) / 1024
}

// resetSelfPeakRSS returns the heap's free pages to the kernel and makes
// it forget the process's peak resident set, so that selfPeakRSSMB
// covers only what runs after it.
func resetSelfPeakRSS() error {
	debug.FreeOSMemory()
	// "5" resets the peak resident set to the current one (clear_refs,
	// Linux 4.0 on); getrusage reads the same counter.
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// selfPeakRSSMB is the benchmark process's own peak resident set.
func selfPeakRSSMB() float64 {
	var r syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &r); err != nil {
		return 0
	}
	return peakRSSMB(&r)
}
