package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest whole percentile that still has at
// least ten samples above it. With fewer than twenty samples no
// percentile above the median qualifies and the maximum (p100) is
// reported instead, so the tail is always the slowest part of the
// sample.
func tailPercentile(n int) int {
	if n < 20 {
		return 100
	}
	return 100 * (n - 10) / n
}

// tail returns the tail latency and the percentile it was taken at.
func tail(xs []float64) (float64, int) {
	p := tailPercentile(len(xs))
	return percentile(xs, float64(p)), p
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
