package stats

import (
	"math"
	"testing"

	"card/internal/xrand"
)

// --- Welford.Merge property tests -----------------------------------------
//
// The sustained-workload percentile pipeline folds per-worker accumulators
// into run totals with Merge; these tests pin the algebra it relies on:
// merging any partition of a stream equals the single-pass accumulator.

// welfordOf runs a single-pass accumulation over xs.
func welfordOf(xs []float64) *Welford {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return &w
}

// approxEq compares with a relative tolerance: Merge reassociates floating
// point sums, so results agree to rounding, not bit-exactly.
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

func TestWelfordMergeEqualsSinglePass(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			// Mix scales and signs so catastrophic-cancellation bugs show.
			xs[i] = rng.Range(-50, 50) * math.Pow(10, float64(rng.Intn(3)))
		}
		whole := welfordOf(xs)

		// Partition the stream into 1..5 contiguous chunks and merge them
		// in order.
		chunks := 1 + rng.Intn(5)
		var merged Welford
		start := 0
		for c := 0; c < chunks; c++ {
			end := start + rng.Intn(n-start+1)
			if c == chunks-1 {
				end = n
			}
			merged.Merge(welfordOf(xs[start:end]))
			start = end
		}

		if merged.N() != whole.N() {
			t.Fatalf("trial %d: merged n=%d, single-pass n=%d", trial, merged.N(), whole.N())
		}
		if !approxEq(merged.Mean(), whole.Mean()) {
			t.Fatalf("trial %d: merged mean %v != %v", trial, merged.Mean(), whole.Mean())
		}
		if !approxEq(merged.Var(), whole.Var()) {
			t.Fatalf("trial %d: merged var %v != %v", trial, merged.Var(), whole.Var())
		}
		// Min/max track exact sample values: must be bit-equal.
		if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
			t.Fatalf("trial %d: merged min/max %v/%v != %v/%v",
				trial, merged.Min(), merged.Max(), whole.Min(), whole.Max())
		}
	}
}

// TestWelfordMergeIntoEmpty pins the empty-side edge cases: merging into an
// empty accumulator must adopt the source wholesale (including min/max,
// which are not zero-default-safe), and merging an empty source is a no-op.
func TestWelfordMergeIntoEmpty(t *testing.T) {
	src := welfordOf([]float64{3, 7, 5}) // min 3, max 7 — both positive, so
	// a zero-initialized min would corrupt the merge if copied fieldwise.
	var empty Welford
	empty.Merge(src)
	if empty != *src {
		t.Errorf("merge into empty: got %+v, want %+v", empty, *src)
	}

	before := *src
	src.Merge(&Welford{})
	if *src != before {
		t.Errorf("merge of empty source changed accumulator: %+v -> %+v", before, *src)
	}

	// All-negative stream: max must stay negative through an empty merge.
	neg := welfordOf([]float64{-9, -2, -4})
	var e2 Welford
	e2.Merge(neg)
	if e2.Max() != -2 || e2.Min() != -9 {
		t.Errorf("negative-stream merge min/max = %v/%v, want -9/-2", e2.Min(), e2.Max())
	}
}

// --- Histogram top-edge and outlier accounting ----------------------------

func TestHistogramTopEdgeClamp(t *testing.T) {
	h := NewHistogram(5, 20) // range [0, 100)
	h.Add(99.999)
	h.Add(100) // exact top edge: clamped into the last bin
	if got := h.Bin(19); got != 2 {
		t.Errorf("last bin = %d, want 2 (top edge clamps in)", got)
	}
	if got := inRange(h); got != h.Total() {
		t.Errorf("top edge counted as outlier: in range %d of %d", got, h.Total())
	}
	h.Add(100.5) // genuinely beyond: outlier, no bin
	h.Add(-0.01) // below range: outlier, no bin
	if got := h.Bin(19); got != 2 {
		t.Errorf("outliers leaked into last bin: %d", got)
	}
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4 (outliers included)", h.Total())
	}
	// In-range bin mass excludes outliers.
	if got := inRange(h); got != 2 {
		t.Errorf("in-range mass = %d, want 2", got)
	}
}

// TestHistogramEdgesProperty sweeps every bin boundary: a sample exactly on
// a lower edge belongs to that bin, and only the top edge of the whole
// range clamps downward.
func TestHistogramEdgesProperty(t *testing.T) {
	const width, bins = 2.5, 8
	h := NewHistogram(width, bins)
	for i := 0; i < bins; i++ {
		h.Add(width * float64(i)) // lower edge of bin i
	}
	for i := 0; i < bins; i++ {
		if got := h.Bin(i); got != 1 {
			t.Fatalf("bin %d = %d, want exactly its lower-edge sample", i, got)
		}
	}
	h.Add(width * bins) // top edge of the range
	if got := h.Bin(bins - 1); got != 2 {
		t.Errorf("top edge not clamped into last bin: %d", got)
	}
	if h.Total() != bins+1 {
		t.Errorf("Total = %d, want %d", h.Total(), bins+1)
	}
}

// --- Summary / Summarize ---------------------------------------------------

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty Summarize = %+v, want zero", s)
	}
	xs := make([]float64, 100) // 1..100 shuffled
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xrand.New(3).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	s := Summarize(xs)
	if s.N != 100 || s.Max != 100 {
		t.Errorf("N/Max = %d/%v, want 100/100", s.N, s.Max)
	}
	if s.Mean != 50.5 {
		t.Errorf("Mean = %v, want 50.5", s.Mean)
	}
	if s.P50 != 50.5 || s.P95 != Quantile(xs, 0.95) || s.P99 != Quantile(xs, 0.99) {
		t.Errorf("quantiles = %v/%v/%v", s.P50, s.P95, s.P99)
	}
	// Summarize must not reorder the caller's slice.
	if xs[0] == 1 && xs[1] == 2 && xs[2] == 3 && xs[3] == 4 {
		t.Error("input slice appears sorted — Summarize mutated it")
	}
}

// --- Window ----------------------------------------------------------------

func TestWindowPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestWindowSlides(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 || len(w.buf) != 4 || w.Mean() != 0 || w.Quantile(0.5) != 0 {
		t.Fatalf("empty window misbehaves: len=%d cap=%d", w.Len(), len(w.buf))
	}
	for i := 1; i <= 3; i++ {
		w.Add(float64(i))
	}
	if w.Len() != 3 || w.Mean() != 2 {
		t.Fatalf("partial window: len=%d mean=%v", w.Len(), w.Mean())
	}
	got := w.Values()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("partial Values = %v", got)
	}
	for i := 4; i <= 9; i++ {
		w.Add(float64(i))
	}
	// Window of 4 now holds 6..9, oldest first.
	got = w.Values()
	want := []float64{6, 7, 8, 9}
	if len(got) != 4 {
		t.Fatalf("full Values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full Values = %v, want %v", got, want)
		}
	}
	if w.Len() != 4 || w.Mean() != 7.5 || w.Quantile(1) != 9 {
		t.Errorf("full window: len=%d mean=%v max=%v", w.Len(), w.Mean(), w.Quantile(1))
	}
	if s := w.Summary(); s.N != 4 || s.P50 != 7.5 || s.Max != 9 {
		t.Errorf("window summary = %+v", s)
	}
}

// TestWindowMatchesTailSummary is the property the workload reports rely
// on: a window of capacity c over a long stream summarizes exactly the
// stream's last c samples.
func TestWindowMatchesTailSummary(t *testing.T) {
	rng := xrand.New(17)
	for _, c := range []int{1, 7, 64} {
		w := NewWindow(c)
		var stream []float64
		for i := 0; i < 500; i++ {
			x := rng.Range(0, 1000)
			stream = append(stream, x)
			w.Add(x)
		}
		tail := stream[len(stream)-c:]
		if got, want := w.Summary(), Summarize(tail); got != want {
			t.Errorf("cap %d: window summary %+v != tail summary %+v", c, got, want)
		}
	}
}
