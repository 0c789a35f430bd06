package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime is the CPU time every thread of the process has used so far, to
// the nanosecond. Every timing the end-to-end metrics report is read from
// it rather than from the wall clock: on a shared virtual machine the wall
// clock also counts the time the hypervisor gives the CPU to another guest
// (steal), which on the 2-vCPU host this benchmark was built on was up to
// 40% of a run and changed from one minute to the next.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// The clock exists on every Linux since 2.6.12; fall back to the
		// microsecond rusage counters rather than fail a run.
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return time.Duration(ts.Nano())
}

func cpuMsSince(c time.Duration) float64 { return float64((cpuTime() - c).Nanoseconds()) / 1e6 }
