package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Readers only the tests use; the simulator reads a Welford's N, Mean and
// Max, a Histogram's bins and a Window's Summary.

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample (0 with no samples).
func (w *Welford) Min() float64 { return w.min }

// String renders the accumulator for test failure messages.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f", w.n, w.Mean(), w.Std(), w.min, w.max)
}

// Total returns the number of samples added, including outliers.
func (h *Histogram) Total() int64 { return h.total }

// Mean returns the histogram mean using bin midpoints (outliers excluded).
func (h *Histogram) Mean() float64 {
	var sum float64
	var n int64
	for i, c := range h.counts {
		sum += (float64(i) + 0.5) * h.width * float64(c)
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders a compact one-line view: "[5:12 10:40 ...]" listing
// upper-edge:count for non-empty bins.
func (h *Histogram) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	first := true
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&sb, "%g:%d", float64(i+1)*h.width, c)
	}
	sb.WriteByte(']')
	return sb.String()
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile of the held samples (0 when empty).
func (w *Window) Quantile(q float64) float64 {
	if w.n == 0 {
		return 0
	}
	return Quantile(w.Values(), q)
}
