// Package stats provides the statistical accumulators the experiment
// harness needs: running mean/variance (Welford), fixed-bin histograms
// matching the paper's 5 %-bin reachability distributions, and quantile
// summaries.
package stats

// Welford accumulates mean and variance in a single numerically stable pass.
// The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Max returns the largest sample (0 with no samples).
func (w *Welford) Max() float64 { return w.max }

// Merge folds another accumulator into w (Chan et al. parallel variance).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Histogram counts samples into fixed-width bins over [0, width*bins).
// The paper's reachability distributions use width=5 (%), bins=20, with each
// sample being one node's reachability percentage.
type Histogram struct {
	width  float64
	counts []int64
	total  int64 // samples added, outliers included
}

// NewHistogram creates a histogram with the given bin width and bin count.
func NewHistogram(width float64, bins int) *Histogram {
	if width <= 0 || bins <= 0 {
		panic("stats: histogram needs positive width and bins")
	}
	return &Histogram{width: width, counts: make([]int64, bins)}
}

// NewReachabilityHistogram returns the paper's 5 %-bin, 20-bin histogram
// over [0, 100).
func NewReachabilityHistogram() *Histogram { return NewHistogram(5, 20) }

// Add counts one sample. Samples below 0 or beyond the top edge count
// toward Total only (a reachability of exactly 100 % falls in the last bin).
func (h *Histogram) Add(x float64) {
	h.total++
	if x < 0 {
		return
	}
	i := int(x / h.width)
	if i >= len(h.counts) {
		// Clamp the exact top edge into the final bin; anything beyond is an
		// outlier.
		if x <= h.width*float64(len(h.counts))+1e-9 {
			h.counts[len(h.counts)-1]++
		}
		return
	}
	h.counts[i]++
}

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.counts[i] }

// NumBins returns the number of bins.
func (h *Histogram) NumBins() int { return len(h.counts) }

// BinWidth returns the bin width.
func (h *Histogram) BinWidth() float64 { return h.width }

// Merge adds o's counts into h. Histograms must have identical shape.
func (h *Histogram) Merge(o *Histogram) {
	if h.width != o.width || len(h.counts) != len(o.counts) {
		panic("stats: merging histograms of different shape")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantileSorted returns the q-quantile (0 <= q <= 1) of an already-sorted
// non-empty slice, interpolating linearly between order statistics; the
// Summary path sorts once and reads several quantiles from it.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
