//go:build linux || darwin

package main

import (
	"regexp"
	"testing"
)

// TestPeakRSS pins the -v summary's memory field: a non-zero whole number
// of megabytes read from getrusage.
func TestPeakRSS(t *testing.T) {
	got := peakRSS()
	m := regexp.MustCompile(`^, peak RSS ([0-9]+) MB$`).FindStringSubmatch(got)
	if m == nil || m[1] == "0" {
		t.Fatalf("peakRSS() = %q, want \", peak RSS N MB\" with N > 0", got)
	}
}
