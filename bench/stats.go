package main

import (
	"math"
	"sort"

	"gpufi/internal/stats"
)

// sortedCopy returns xs in ascending order without disturbing the caller's.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for even n),
// or 0 for an empty sample.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs (0 <= p <= 100) by linear
// interpolation, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(sortedCopy(xs), p/100)
}

// tailPercentile reports the wanted percentile when at least ten samples
// lie beyond it, else the highest whole percentile (at least the median)
// that still has ten beyond it; with fewer than twenty samples that is
// the median. It returns the percentile actually used.
func tailPercentile(xs []float64, want float64) (value, used float64) {
	n := float64(len(xs))
	used = want
	if n*(1-want/100) < 10 {
		used = math.Floor(100 * (1 - 10/n))
		if n < 20 || used < 50 {
			used = 50
		}
	}
	return percentile(xs, used), used
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method) — the figure the
// benchmark driver holds each metric's bound against. It needs two
// samples; a single sample has no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based scale; like Python, clamp the
		// interval to the sample and extrapolate from it.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (q(3) - q(1)) / med
}
