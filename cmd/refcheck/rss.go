//go:build linux || darwin

package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// peakRSS returns ", peak RSS N MB" for the -v summary line: the process's
// high-water resident set from getrusage, so memory figures can be
// reproduced without an external time(1).
func peakRSS() string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ""
	}
	bytes := int64(ru.Maxrss) * 1024 // Linux reports kilobytes
	if runtime.GOOS == "darwin" {
		bytes = int64(ru.Maxrss) // macOS reports bytes
	}
	return fmt.Sprintf(", peak RSS %d MB", bytes>>20)
}
