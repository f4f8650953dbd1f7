package main

import (
	"math"
	"sort"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile of v (0 < q ≤ 1); 0 for an
// empty sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return s[rank(len(s), q)-1]
}

func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailResolved reports whether a sample of n has at least ten observations
// beyond its nearest-rank q-quantile — the rule for quoting a percentile at
// all (p95 needs n ≥ 200).
func tailResolved(n int, q float64) bool { return n-rank(n, q) >= 10 }

// spread is (q3 − q1)/median with quartiles as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), so the
// number printed here is the one the acceptance procedure recomputes.
func spread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(v)
	quart := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - 4*j
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// total sums durations.
func total(ds []time.Duration) time.Duration {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum
}

// ratio is num/den, 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
