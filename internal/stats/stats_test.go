package stats

import (
	"math"
	"testing"
	"testing/quick"

	"card/internal/xrand"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// inRange sums the bin counts: the samples a histogram kept, outliers
// excluded.
func inRange(h *Histogram) int64 {
	var n int64
	for i := 0; i < h.NumBins(); i++ {
		n += h.Bin(i)
	}
	return n
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if !almostEqual(w.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator must report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Error("single sample: mean 3, var 0")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := xrand.New(42)
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if !almostEqual(a.Var(), all.Var(), 1e-9) {
		t.Errorf("merged var %v vs %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merged min/max mismatch")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 {
		t.Error("merge with empty changed N")
	}
	var c Welford
	c.Merge(&a) // merging into empty copies
	if c.N() != 1 || c.Mean() != 1 {
		t.Error("merge into empty did not copy")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(5, 20)
	h.Add(0)    // bin 0
	h.Add(4.99) // bin 0
	h.Add(5)    // bin 1
	h.Add(97)   // bin 19
	h.Add(100)  // top edge -> last bin
	h.Add(150)  // over
	h.Add(-1)   // under
	if h.Bin(0) != 2 || h.Bin(1) != 1 || h.Bin(19) != 2 {
		t.Errorf("bins = %v", h)
	}
	if got := inRange(h); got != 5 {
		t.Errorf("in-range mass = %d, want 5 (two outliers)", got)
	}
	if h.Total() != 7 {
		t.Errorf("Total = %d", h.Total())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10, 10)
	h.Add(5)  // midpoint 5
	h.Add(15) // midpoint 15
	if !almostEqual(h.Mean(), 10, 1e-12) {
		t.Errorf("Mean = %v, want 10", h.Mean())
	}
	if NewHistogram(1, 1).Mean() != 0 {
		t.Error("empty histogram mean must be 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(5, 4)
	b := NewHistogram(5, 4)
	a.Add(1)
	b.Add(1)
	b.Add(7)
	a.Merge(b)
	if a.Bin(0) != 2 || a.Bin(1) != 1 || a.Total() != 3 {
		t.Errorf("merged histogram wrong: %v total %d", a, a.Total())
	}
}

func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merge of different shapes did not panic")
		}
	}()
	NewHistogram(5, 4).Merge(NewHistogram(5, 5))
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(5, 3)
	h.Add(2)
	h.Add(11)
	if got := h.String(); got != "[5:1 15:1]" {
		t.Errorf("String = %q", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile([]float64{3, 1}, 0.5); got != 2 {
		t.Errorf("interpolated median = %v", got)
	}
	// input must not be reordered
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 {
		t.Error("Quantile mutated input")
	}
}

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile of empty did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 2 + rng.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.Range(-100, 100)
			w.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Var(), naiveVar, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHistogramConservation(t *testing.T) {
	// in-range samples land in a bin, every sample counts toward Total,
	// regardless of input.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		h := NewHistogram(5, 20)
		n := rng.Intn(500)
		var want int64
		for i := 0; i < n; i++ {
			x := rng.Range(-50, 200)
			if x >= 0 && x <= 100 {
				want++
			}
			h.Add(x)
		}
		return inRange(h) == want && h.Total() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(0, 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
