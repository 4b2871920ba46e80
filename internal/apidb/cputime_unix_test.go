//go:build linux || darwin

package apidb

import (
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time this process has used so far
// (getrusage RUSAGE_SELF), for timings that other processes' load cannot
// inflate.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
