package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// cpuNow reads the calling thread's CPU clock. The benchmark loop's
// goroutine is locked to its thread for the whole run, so differences
// of cpuNow are the CPU time the loop spent, without the time the thread stood
// preempted or, on a guest with paravirtual steal accounting, stolen by
// the hypervisor. One read costs a system call (about 0.4 µs on a
// 2-vCPU Xeon VM).
func cpuNow() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
