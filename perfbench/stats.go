package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks (rank = p/100·(n−1)), so the 50th
// percentile is the usual median. It does not modify xs; NaN for no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo = 0
	}
	if hi > len(s)-1 {
		hi = len(s) - 1
	}
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// maxOf returns the largest element of xs (0 for no data).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a counter with no base reads as zero).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
