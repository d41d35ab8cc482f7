package main

import (
	"fmt"
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples for
// an even count), or NaN when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the acceptance check's. It needs at
// least two samples; with fewer it returns NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sortedCopy(xs)
	ld := len(s)
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks, or NaN when there are no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// tailLevels are the percentiles tail considers, highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile in tailLevels that leaves at least ten
// samples beyond it, and its value; ok is false when even the median leaves
// fewer than ten (fewer than twenty samples).
func tail(xs []float64) (level, value float64, ok bool) {
	for _, p := range tailLevels {
		if supports(len(xs), p) {
			return p, percentile(xs, p), true
		}
	}
	return 0, math.NaN(), false
}

// supports reports whether n samples leave at least ten beyond the p-th
// percentile.
func supports(n int, p float64) bool {
	return float64(n)*(1-p/100) >= 10-1e-9
}

// describe renders a sample of milliseconds as its median, quartiles and
// tail, always with the sample count.
func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	out := fmt.Sprintf("p50 %.3f (quartiles %.3f–%.3f)", median(xs), q1, q3)
	if level, v, ok := tail(xs); ok {
		out += fmt.Sprintf(", p%v %.3f", level, v)
	}
	return fmt.Sprintf("%s, n=%d", out, len(xs))
}
