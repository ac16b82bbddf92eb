package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is the process-level view at one instant: CPU time, allocator and
// collector totals, peak resident set.
type procSnap struct {
	cpu       time.Duration // user + system
	mallocs   uint64
	allocated uint64
	gcPause   time.Duration
	rssPeakMB float64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return procSnap{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		allocated: ms.TotalAlloc,
		gcPause:   time.Duration(ms.PauseTotalNs),
		rssPeakMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// heapInuse collects garbage and returns the heap bytes still in use — the
// before/after pair around a table fill is that table's memory.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
