package stats

import "sort"

// Summary holds the headline order statistics of one metric stream — the
// P50/P95/P99 quantiles the sustained-workload reports use, plus mean and
// max. The zero value means "no samples".
type Summary struct {
	N             int64
	Mean          float64
	P50, P95, P99 float64
	Max           float64
}

// Summarize computes a Summary over xs (the zero Summary for empty input).
// Quantiles interpolate linearly between order statistics.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		N:    int64(len(sorted)),
		Mean: sum / float64(len(sorted)),
		P50:  quantileSorted(sorted, 0.50),
		P95:  quantileSorted(sorted, 0.95),
		P99:  quantileSorted(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
	}
}

// Window is a fixed-capacity sliding window over the most recent samples
// of one metric. The workload layer keeps one per tracked metric (messages
// per query, hops, success indicator) and reads trailing quantiles from it
// — the serving-style view of "how is the stream doing right now", as
// opposed to Welford's whole-run aggregates.
//
// The zero value is not usable; construct with NewWindow. Not safe for
// concurrent use.
type Window struct {
	buf  []float64
	next int // next write position
	n    int // samples held, <= cap
}

// NewWindow creates a window holding the most recent capacity samples.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("stats: window needs positive capacity")
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add appends one sample, evicting the oldest once the window is full.
func (w *Window) Add(x float64) {
	w.buf[w.next] = x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
	}
	if w.n < len(w.buf) {
		w.n++
	}
}

// Len returns the number of samples currently held.
func (w *Window) Len() int { return w.n }

// Values returns a copy of the held samples, oldest first.
func (w *Window) Values() []float64 {
	out := make([]float64, 0, w.n)
	if w.n < len(w.buf) {
		return append(out, w.buf[:w.n]...)
	}
	out = append(out, w.buf[w.next:]...)
	return append(out, w.buf[:w.next]...)
}

// Mean returns the mean of the held samples (0 when empty).
func (w *Window) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	var sum float64
	for _, x := range w.buf[:w.n] {
		sum += x
	}
	return sum / float64(w.n)
}

// Summary returns the trailing Summary of the held samples.
func (w *Window) Summary() Summary { return Summarize(w.Values()) }
