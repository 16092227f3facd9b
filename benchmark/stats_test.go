package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndSummary(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || !near(s.Median, 3) || !near(s.Q1, 2) || !near(s.Q3, 4) {
		t.Fatalf("summary of 1..5 = %+v", s)
	}
	if got := quantile([]float64{10, 20}, 0.25); !near(got, 12.5) {
		t.Fatalf("interpolated quantile = %v, want 12.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Fatal("quantile of no samples must be NaN")
	}
}

// A percentile is worth reporting when at least ten samples lie beyond it.
func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{
		{n: 9, q: 0.75, want: 2},
		{n: 40, q: 0.75, want: 10},
		{n: 199, q: 0.95, want: 9},
		{n: 200, q: 0.95, want: 10},
		{n: 350, q: 0.90, want: 35},
		{n: 1000, q: 0.99, want: 10},
	} {
		if got := samplesBeyond(tc.n, tc.q); got != tc.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// the driver uses: for 1..10 the quartiles are 2.75 and 8.25.
func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Fatalf("spread(1..10) = %v, want %v", got, want)
	}
	if spread([]float64{7}) != 0 {
		t.Fatal("one sample has no spread")
	}
}
