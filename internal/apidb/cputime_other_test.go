//go:build !linux && !darwin

package apidb

import "time"

var processStart = time.Now()

// processCPU falls back to wall time where getrusage is unavailable.
func processCPU() time.Duration { return time.Since(processStart) }
