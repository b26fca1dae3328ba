package main

import (
	"math"
	"slices"
)

// minTailSamples is the sample count below which no tail is reported:
// with fewer than forty samples the highest percentile that still has
// ten samples beyond it sits at or below p75, which is no tail.
const minTailSamples = 40

// tailBeyond is how many samples must lie above a reported tail.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile of xs that has at least
// tailBeyond samples above it, with its nearest-rank value. ok is false
// below minTailSamples samples.
//
// For n samples the percentile is p = ⌊100·(n−10)/n⌋ and its value the
// sample at rank ⌈p·n/100⌉ (1-based, ascending): that rank is at most
// n−10, so ten samples lie beyond it, and at p+1 the rank would exceed
// n−10.
func tail(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < minTailSamples {
		return 0, 0, false
	}
	pct = 100 * (n - tailBeyond) / n
	rank := (pct*n + 99) / 100
	s := slices.Clone(xs)
	slices.Sort(s)
	return pct, s[rank-1], true
}

// mean returns the arithmetic mean of xs, NaN for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
