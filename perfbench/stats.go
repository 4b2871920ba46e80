package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs, interpolating linearly between the
// two closest ranks. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tail is the highest percentile, up to the 95th, that has at least ten
// samples beyond it: the 95th from 200 samples on, the median below 20.
func tail(xs []float64) float64 {
	q := 1 - 10/float64(len(xs))
	return quantile(xs, min(0.95, max(0.5, q)))
}

// slope is the log-log growth exponent of a cost t measured at sizes n1 and
// n2: 1 is linear, 2 quadratic. It is 0 when either point is not positive.
func slope(n1, t1, n2, t2 float64) float64 {
	if n1 <= 0 || t1 <= 0 || n2 <= 0 || t2 <= 0 || n1 == n2 {
		return 0
	}
	return math.Log(t2/t1) / math.Log(n2/n1)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
