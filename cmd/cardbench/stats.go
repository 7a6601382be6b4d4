package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule on a sorted copy: the smallest sample with at least q of the
// samples at or below it. Nearest rank keeps every reported value an
// actual measurement. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the midpoint median (mean of the two middle samples for an
// even count), the figure every timing metric reports.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than one slow tick.
const tailBeyond = 10

// tailPercentile picks the highest whole percentile, at most 90, that
// still has tailBeyond of the n samples beyond it: 90 from 100 samples
// up, 80 at 50. Below 21 samples no percentile above the median
// qualifies and it returns 50 — the caller then reports the median and
// the stated percentile says so.
func tailPercentile(n int) int {
	if n <= 2*tailBeyond {
		return 50
	}
	p := 100 * (n - tailBeyond) / n
	if p > 90 {
		p = 90
	}
	return p
}

// tail returns the tailPercentile(len(xs)) quantile of xs and the
// percentile it used.
func tail(xs []float64) (value float64, pct int) {
	pct = tailPercentile(len(xs))
	return quantile(xs, float64(pct)/100), pct
}
