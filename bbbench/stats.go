package main

import "sort"

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 over 200 samples is the second-largest value, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending samples — the
// rank rule internal/metrics uses — and whether at least minBeyond samples
// lie beyond it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(q*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// median returns the middle of xs (the mean of the two middles for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
