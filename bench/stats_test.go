package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same samples.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.3, 2.9, 3.1}, 3.1, 2.9, 3.3},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{110, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 60, 30, 90},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	if q1, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one sample are not NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		level float64
		ok    bool
	}{
		{0, 0, false},
		{5, 0, false},   // fewer than ten samples
		{19, 0, false},  // the median would leave nine beyond it
		{20, 50, true},  // exactly ten beyond the median
		{40, 75, true},  // ten beyond p75
		{100, 90, true}, // ten beyond p90
		{199, 90, true}, // p95 would leave 9.95
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		level, _, ok := tail(seq(c.n))
		if ok != c.ok || level != c.level {
			t.Errorf("tail of %d samples = p%v (ok %v), want p%v (ok %v)", c.n, level, ok, c.level, c.ok)
		}
	}
}

func TestDescribeAlwaysGivesTheCount(t *testing.T) {
	few := describe([]float64{3, 1, 2})
	if !strings.HasSuffix(few, "n=3") || strings.Contains(few, "p99") {
		t.Errorf("describe of 3 samples = %q", few)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if many := describe(xs); !strings.Contains(many, "p95 ") || !strings.HasSuffix(many, "n=200") {
		t.Errorf("describe of 200 samples = %q", many)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
