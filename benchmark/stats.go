package main

import (
	"fmt"
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported
// percentile for it to count as measured rather than guessed.
const tailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, the value at
// index floor(q·n), and how many samples lie strictly beyond that index.
// Above the median it fails when fewer than tail do: a p99 over 500
// requests is the fifth-largest value, not a percentile.
func percentile(sorted []float64, q float64, tail int) (v float64, beyond int, err error) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile %.3g of no samples", q)
	}
	i := min(int(q*float64(n)), n-1)
	beyond = n - 1 - i
	if q > 0.5 && beyond < tail {
		return sorted[i], beyond, fmt.Errorf("p%g over %d samples has only %d beyond it, need %d", q*100, n, beyond, tail)
	}
	return sorted[i], beyond, nil
}

// median returns the middle value of vals (mean of the two middle
// values for an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// spreadShare is (max − min) / median: the noise floor recorded beside
// every per-round metric.
func spreadShare(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}
