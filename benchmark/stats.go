package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile, capped at p99, that leaves
// at least minBeyond of n samples beyond it. ok is false when even the
// median cannot be supported (n < 2*minBeyond).
func tailPercentile(n int) (p float64, ok bool) {
	if n < 2*minBeyond {
		return 0, false
	}
	p = 100 * float64(n-minBeyond) / float64(n)
	if p > 99 {
		p = 99
	}
	return p, true
}

// worseBy returns by what share of base the value got worse: positive when
// cur moved against the metric's direction, negative when it improved.
func worseBy(base, cur float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	if higherIsBetter {
		return (base - cur) / base
	}
	return (cur - base) / base
}
