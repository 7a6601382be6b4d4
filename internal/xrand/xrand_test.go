package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(7)
	a := root.Derive(0)
	b := root.Derive(1)
	// Streams must differ from each other...
	if a.Uint64() == b.Uint64() {
		t.Error("derived streams 0 and 1 coincide on first draw")
	}
	// ...and must not depend on how much the parent has been consumed.
	root2 := New(7)
	root2.Uint64()
	root2.Uint64()
	c := root2.Derive(0)
	d := New(7).Derive(0)
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("Derive depends on parent consumption; must be stable")
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	r := New(3)
	for i := 0; i < 50; i++ {
		r.Uint64() // scramble state
	}
	r.Reseed(901)
	fresh := New(901)
	for i := 0; i < 100; i++ {
		if r.Uint64() != fresh.Uint64() {
			t.Fatalf("Reseed(901) diverged from New(901) at draw %d", i)
		}
	}
	// Lineage must follow the reseed so stream derivation matches too.
	if r.StreamSeed(4, 9) != fresh.StreamSeed(4, 9) {
		t.Error("StreamSeed after Reseed differs from fresh generator")
	}
}

func TestStreamSeedStable(t *testing.T) {
	// The substream seed depends only on (lineage, a, b), never on draws.
	a := New(42)
	b := New(42)
	for i := 0; i < 17; i++ {
		b.Uint64()
	}
	for node := uint64(0); node < 8; node++ {
		for round := uint64(0); round < 8; round++ {
			if a.StreamSeed(node, round) != b.StreamSeed(node, round) {
				t.Fatalf("stream (%d,%d) depends on parent consumption", node, round)
			}
		}
	}
}

func TestStreamSeedDistinct(t *testing.T) {
	// All (a, b) pairs over a small grid — plus the swapped pairs — must
	// give distinct seeds; a collision would correlate two nodes' rounds.
	root := New(7)
	seen := map[uint64][2]uint64{}
	for a := uint64(0); a < 40; a++ {
		for b := uint64(0); b < 40; b++ {
			s := root.StreamSeed(a, b)
			if prev, dup := seen[s]; dup {
				t.Fatalf("streams (%d,%d) and (%d,%d) collide", a, b, prev[0], prev[1])
			}
			seen[s] = [2]uint64{a, b}
		}
	}
	if root.StreamSeed(1, 2) == root.StreamSeed(2, 1) {
		t.Error("StreamSeed is symmetric in (a, b)")
	}
}

func TestStreamSeedVariesWithLineage(t *testing.T) {
	if New(1).StreamSeed(3, 4) == New(2).StreamSeed(3, 4) {
		t.Error("different run seeds share substream (3,4)")
	}
}

func TestSplitStreamMatchesReseed(t *testing.T) {
	root := New(55)
	a := root.SplitStream(6, 2)
	b := New(0)
	b.Reseed(root.StreamSeed(6, 2))
	for i := 0; i < 20; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitStream and Reseed(StreamSeed) disagree")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(99)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish sanity check over 10 buckets.
	r := New(4242)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from %f by more than 5 sigma", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(6)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		sum += r.Float64()
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("Range(3,9) = %v out of range", v)
		}
	}
	if got := r.Range(4, 4); got != 4 {
		t.Errorf("Range(4,4) = %v, want 4", got)
	}
}

func TestBool(t *testing.T) {
	r := New(10)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) empirical rate %v", p)
	}
}

func TestExpFloat64(t *testing.T) {
	r := New(11)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("ExpFloat64 = %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want ~1", mean)
	}
}

func TestNormFloat64(t *testing.T) {
	r := New(12)
	sum, sumSq := 0.0, 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	// Shuffling the identity of [0, 50) yields a permutation of it.
	p := make([]int, 50)
	for i := range p {
		p[i] = i
	}
	New(13).Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Shuffle produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(14)
	s := []int{1, 1, 2, 3, 5, 8, 13}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	sum2 := 0
	for _, v := range s {
		sum2 += v
	}
	if sum != sum2 || len(s) != 7 {
		t.Errorf("shuffle changed contents: %v", s)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeriveDeterministic(t *testing.T) {
	f := func(seed, stream uint64) bool {
		a := New(seed).Derive(stream)
		b := New(seed).Derive(stream)
		for i := 0; i < 5; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(77)
	for _, n := range []uint64{1, 2, 3, 1 << 40, math.MaxUint64} {
		for i := 0; i < 100; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nSmallUniform(t *testing.T) {
	// n=3 exercises the rejection path; verify near-uniform split.
	r := New(78)
	counts := [3]int{}
	const draws = 90000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(3)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-draws/3.0) > 5*math.Sqrt(draws/3.0) {
			t.Errorf("Uint64n(3) bucket %d count %d far from uniform", b, c)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Intn(1000)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { NewZipf(0, 1) },
		func() { NewZipf(-3, 1) },
		func() { NewZipf(10, -0.5) },
		func() { NewZipf(10, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Zipf construction did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestZipfRangeAndDeterminism(t *testing.T) {
	z := NewZipf(37, 1.1)
	if z.N() != 37 {
		t.Fatalf("N = %d, want 37", z.N())
	}
	a, b := New(5), New(5)
	for i := 0; i < 5000; i++ {
		va, vb := z.Draw(a), z.Draw(b)
		if va != vb {
			t.Fatalf("draw %d diverges: %d vs %d", i, va, vb)
		}
		if va < 0 || va >= 37 {
			t.Fatalf("draw %d out of range: %d", i, va)
		}
	}
}

// TestZipfOneDrawPerSample pins the stream contract the workload layer
// relies on: each Draw consumes exactly one Float64, whatever the sampled
// rank, so downstream draws never shift with the sampled values.
func TestZipfOneDrawPerSample(t *testing.T) {
	z := NewZipf(100, 1.5)
	a, b := New(9), New(9)
	const k = 257
	for i := 0; i < k; i++ {
		z.Draw(a)
	}
	for i := 0; i < k; i++ {
		b.Float64()
	}
	if va, vb := a.Uint64(), b.Uint64(); va != vb {
		t.Fatalf("Zipf draws consumed a different stream amount: next %d vs %d", va, vb)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(4, 0)
	r := New(11)
	counts := [4]int{}
	const draws = 80000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-draws/4.0) > 5*math.Sqrt(draws/4.0) {
			t.Errorf("s=0 bucket %d count %d far from uniform", b, c)
		}
	}
}

func TestZipfSkewsTowardLowRanks(t *testing.T) {
	z := NewZipf(64, 1.0)
	r := New(13)
	counts := make([]int, 64)
	const draws = 60000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	// P(0) = 1/H_64 ≈ 0.21; check the head dominates and the expected
	// 2:1 ratio between ranks 0 and 1 holds loosely.
	if counts[0] < counts[63]*4 {
		t.Errorf("rank 0 drawn %d times, rank 63 %d — no skew", counts[0], counts[63])
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.4 {
		t.Errorf("rank0/rank1 ratio = %.2f, want ~2 for s=1", ratio)
	}
}
