package main

import (
	"fmt"
	"runtime/metrics"
)

// allocStats returns ", allocated N MB, M GC cycles" for the -v summary
// line: the bytes the process has allocated on the heap and the garbage
// collections it has completed, read from runtime/metrics, so allocation
// and GC figures can be reproduced without a profile. It returns "" if the
// runtime does not export either metric.
func allocStats() string {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	for _, m := range s {
		if m.Value.Kind() != metrics.KindUint64 {
			return ""
		}
	}
	return fmt.Sprintf(", allocated %d MB, %d GC cycles", s[0].Value.Uint64()>>20, s[1].Value.Uint64())
}
