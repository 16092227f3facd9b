package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by linear
// interpolation between order statistics. Empty input gives NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summary is the shape every timing row reports: sample count, median and
// quartiles.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// samplesBeyond is how many of n samples lie strictly beyond the q-quantile. A
// percentile is worth reporting when at least ten do.
func samplesBeyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure the regression bounds are checked against. It
// uses the exclusive quartile method of Python's statistics.quantiles(n=4).
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(n-1) {
			pos = float64(n - 1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}
