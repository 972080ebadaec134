package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU is the calling thread's CPU time; main locks the measuring
// goroutine to its thread, and the whole stack under test runs on that
// goroutine. On a shared VM the hypervisor's steal time (up to a
// quarter of the machine while this benchmark was written) stretches
// every wall-clock interval, so the bounded host-time metrics count
// this clock instead. Collector work on other threads is not in it;
// runtime.gc_cpu_pct reports it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock id and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
