package main

import (
	"regexp"
	"testing"
)

// allocSink keeps the test's allocation on the heap.
var allocSink []byte

// TestAllocStats pins the -v summary's allocation fields: whole megabytes
// allocated so far and a GC cycle count, both read from runtime/metrics.
func TestAllocStats(t *testing.T) {
	allocSink = make([]byte, 4<<20)
	got := allocStats()
	m := regexp.MustCompile(`^, allocated ([0-9]+) MB, ([0-9]+) GC cycles$`).FindStringSubmatch(got)
	if m == nil || m[1] == "0" {
		t.Fatalf("allocStats() = %q, want \", allocated N MB, M GC cycles\" with N > 0", got)
	}
}
