package geom

import (
	"math"
	"testing"
	"testing/quick"

	"card/internal/xrand"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := a.Dist(b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := a.Dist2(b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Errorf("Dist(self) = %v, want 0", got)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	if got := p.Add(3, -1); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := (Point{5, 7}).Sub(Point{2, 3}); got != (Point{3, 4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestRectContainsClamp(t *testing.T) {
	r := Rect{100, 50}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 50}) || !r.Contains(Point{50, 25}) {
		t.Error("Contains rejects interior/boundary points")
	}
	if r.Contains(Point{-1, 0}) || r.Contains(Point{0, 51}) {
		t.Error("Contains accepts exterior points")
	}
	if got := r.Clamp(Point{-5, 60}); got != (Point{0, 50}) {
		t.Errorf("Clamp = %v, want (0,50)", got)
	}
	if got := r.Clamp(Point{40, 20}); got != (Point{40, 20}) {
		t.Errorf("Clamp of interior point moved it: %v", got)
	}
	if got := r.Area(); got != 5000 {
		t.Errorf("Area = %v", got)
	}
}

func TestGridRejectsBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid with cell=0 did not panic")
		}
	}()
	NewGrid(Rect{10, 10}, 0)
}

// bruteNeighbors returns ids within radius of p by exhaustive scan.
func bruteNeighbors(pts []Point, p Point, radius float64) map[int32]bool {
	out := map[int32]bool{}
	r2 := radius * radius
	for i, q := range pts {
		if p.Dist2(q) <= r2 {
			out[int32(i)] = true
		}
	}
	return out
}

// visitWithin calls fn for every id in the buckets BucketRange names,
// the scan the unit-disk builders run inline.
func visitWithin(g *Grid, p Point, radius float64, fn func(id int32)) {
	x0, y0, x1, y1 := g.BucketRange(p, radius)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, id := range g.Bucket(x, y) {
				fn(id)
			}
		}
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := xrand.New(2024)
	area := Rect{710, 710}
	const n = 400
	const radius = 50.0
	pts := make([]Point, n)
	g := NewGrid(area, radius)
	for i := range pts {
		pts[i] = Point{rng.Range(0, area.W), rng.Range(0, area.H)}
		g.Insert(int32(i), pts[i])
	}
	for probe := 0; probe < 50; probe++ {
		p := Point{rng.Range(0, area.W), rng.Range(0, area.H)}
		want := bruteNeighbors(pts, p, radius)
		got := map[int32]bool{}
		visitWithin(g, p, radius, func(id int32) {
			if p.Dist2(pts[id]) <= radius*radius {
				got[id] = true
			}
		})
		if len(got) != len(want) {
			t.Fatalf("probe %d: grid found %d, brute force %d", probe, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("probe %d: grid missed node %d", probe, id)
			}
		}
	}
}

func TestGridVisitIsSuperset(t *testing.T) {
	// Every node truly within radius must be visited, even at area borders.
	rng := xrand.New(7)
	area := Rect{100, 100}
	g := NewGrid(area, 30)
	pts := []Point{{0, 0}, {100, 100}, {0, 100}, {100, 0}, {50, 50}}
	for i, p := range pts {
		g.Insert(int32(i), p)
	}
	for probe := 0; probe < 200; probe++ {
		p := Point{rng.Range(0, 100), rng.Range(0, 100)}
		visited := map[int32]bool{}
		visitWithin(g, p, 30, func(id int32) { visited[id] = true })
		for i, q := range pts {
			if p.Dist(q) <= 30 && !visited[int32(i)] {
				t.Fatalf("node %d at %v within 30 of %v but not visited", i, q, p)
			}
		}
	}
}

func TestGridReset(t *testing.T) {
	g := NewGrid(Rect{10, 10}, 5)
	g.Insert(1, Point{1, 1})
	g.Reset()
	count := 0
	visitWithin(g, Point{1, 1}, 5, func(int32) { count++ })
	if count != 0 {
		t.Errorf("after Reset, the bucket scan saw %d nodes, want 0", count)
	}
}

func TestGridHandlesOutOfAreaPoints(t *testing.T) {
	// Mobility models clamp, but defensive: inserts outside the area must not
	// panic and must remain findable.
	g := NewGrid(Rect{10, 10}, 5)
	g.Insert(1, Point{-3, 20})
	found := false
	visitWithin(g, Point{-3, 20}, 5, func(id int32) { found = id == 1 })
	if !found {
		t.Error("out-of-area point not rediscovered by the bucket scan at same spot")
	}
}

func TestQuickDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		a := Point{rng.Range(0, 1000), rng.Range(0, 1000)}
		b := Point{rng.Range(0, 1000), rng.Range(0, 1000)}
		c := Point{rng.Range(0, 1000), rng.Range(0, 1000)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClampIdempotentAndInside(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		r := Rect{710, 710}
		c := r.Clamp(Point{x, y})
		return r.Contains(c) && r.Clamp(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkGridBuildAndQuery(b *testing.B) {
	rng := xrand.New(1)
	area := Rect{710, 710}
	const n = 500
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{rng.Range(0, area.W), rng.Range(0, area.H)}
	}
	g := NewGrid(area, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reset()
		for j, p := range pts {
			g.Insert(int32(j), p)
		}
		total := 0
		for _, p := range pts {
			visitWithin(g, p, 50, func(int32) { total++ })
		}
	}
}
