package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"card/internal/geom"
	"card/internal/xrand"
)

// lineGraph builds n nodes spaced 10 m apart on a line with 15 m range, so
// each node links only to immediate neighbors: a path graph.
func lineGraph(n int) *Graph {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	return Build(pts, geom.Rect{W: float64(n) * 10, H: 10}, LinkModel{Uniform: 15}, nil)
}

func TestBuildPathGraph(t *testing.T) {
	g := lineGraph(5)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Links() != 4 {
		t.Fatalf("Links = %d, want 4", g.Links())
	}
	if d := g.Degree(0); d != 1 {
		t.Errorf("Degree(0) = %d, want 1", d)
	}
	if d := g.Degree(2); d != 2 {
		t.Errorf("Degree(2) = %d, want 2", d)
	}
	if !g.Adjacent(1, 2) || g.Adjacent(0, 2) {
		t.Error("Adjacent wrong on path graph")
	}
	if g.Adjacent(2, 2) {
		t.Error("node adjacent to itself")
	}
}

// TestBuildPanicsOnBadRange pins LinkModel validation, the only place link
// models are checked: every range in use must be positive and finite, NaN
// included (it compares false against any bound), and Ranges must cover
// the node count.
func TestBuildPanicsOnBadRange(t *testing.T) {
	pos := []geom.Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	for name, lm := range map[string]LinkModel{
		"zero":         {Uniform: 0},
		"negative":     {Uniform: -5},
		"nan":          {Uniform: math.NaN()},
		"inf":          {Uniform: math.Inf(1)},
		"ranges-zero":  {Uniform: 5, Ranges: []float64{5, 0}},
		"ranges-nan":   {Uniform: 5, Ranges: []float64{math.NaN(), 5}},
		"ranges-inf":   {Uniform: 5, Ranges: []float64{5, math.Inf(1)}},
		"ranges-short": {Uniform: 5, Ranges: []float64{5}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build with %+v did not panic", name, lm)
				}
			}()
			Build(pos, geom.Rect{W: 10, H: 10}, lm, nil)
		}()
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	rng := xrand.New(3)
	g := Build(UniformPositions(200, geom.Rect{W: 500, H: 500}, rng), geom.Rect{W: 500, H: 500}, LinkModel{Uniform: 50}, nil)
	for u := NodeID(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.Adjacent(v, u) {
				t.Fatalf("asymmetric adjacency %d->%d", u, v)
			}
		}
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	rng := xrand.New(11)
	area := geom.Rect{W: 300, H: 300}
	pts := UniformPositions(120, area, rng)
	g := Build(pts, area, LinkModel{Uniform: 40}, nil)
	links := 0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			within := pts[i].Dist(pts[j]) <= 40
			if within {
				links++
			}
			if g.Adjacent(NodeID(i), NodeID(j)) != within {
				t.Fatalf("adjacency(%d,%d) = %v, brute force %v", i, j, !within, within)
			}
		}
	}
	if g.Links() != links {
		t.Fatalf("Links = %d, brute force %d", g.Links(), links)
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := lineGraph(6)
	res := g.BFS(0)
	for v := 0; v < 6; v++ {
		if int(res.Dist[v]) != v {
			t.Errorf("Dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	// On a path graph the scan reaches the nodes in id order, one per
	// level, so exactly k nodes lie closer than k hops.
	for i, v := range res.Visited {
		if int(v) != i {
			t.Errorf("Visited = %v, want 0..5 in order", res.Visited)
			break
		}
	}
	for k := 0; k <= 7; k++ {
		if got, want := res.Within(k), min(k, 6); got != want {
			t.Errorf("Within(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestBoundedBFS(t *testing.T) {
	g := lineGraph(10)
	res := g.BoundedBFS(0, 3)
	for v := 0; v < 10; v++ {
		want := int32(v)
		if v > 3 {
			want = -1
		}
		if res.Dist[v] != want {
			t.Errorf("BoundedBFS Dist[%d] = %d, want %d", v, res.Dist[v], want)
		}
	}
	if len(res.Visited) != 4 {
		t.Errorf("Visited = %v, want 4 nodes", res.Visited)
	}
}

func TestBoundedBFSZeroHops(t *testing.T) {
	g := lineGraph(3)
	res := g.BoundedBFS(1, 0)
	if len(res.Visited) != 1 || res.Visited[0] != 1 {
		t.Errorf("0-hop BFS visited %v", res.Visited)
	}
}

func TestPathToUnreachable(t *testing.T) {
	// Two isolated nodes.
	g := Build([]geom.Point{{X: 0, Y: 0}, {X: 100, Y: 100}}, geom.Rect{W: 100, H: 100}, LinkModel{Uniform: 10}, nil)
	res := g.BFS(0)
	if res.Dist[1] != -1 || len(res.Visited) != 1 || res.Within(-1) != 1 {
		t.Errorf("unreachable node scanned: Dist = %v, Visited = %v", res.Dist, res.Visited)
	}
}

func TestVisitedSortedByDistance(t *testing.T) {
	rng := xrand.New(5)
	area := geom.Rect{W: 400, H: 400}
	g := Build(UniformPositions(150, area, rng), area, LinkModel{Uniform: 60}, nil)
	res := g.BFS(0)
	for i := 1; i < len(res.Visited); i++ {
		if res.Dist[res.Visited[i]] < res.Dist[res.Visited[i-1]] {
			t.Fatal("Visited not in non-decreasing distance order")
		}
	}
}

// TestBFSResultRunReuse pins the reusable scan: one BFSResult re-Run
// across snapshots of equal and different size, scalar and directed,
// bounded and unbounded, leaves exactly what a fresh BoundedBFS computes,
// and Within(k) counts the nodes a fresh scan puts closer than k hops.
func TestBFSResultRunReuse(t *testing.T) {
	rng := xrand.New(21)
	area := geom.Rect{W: 300, H: 300}
	var scan BFSResult
	for i, n := range []int{60, 60, 90, 30, 30, 120, 60} {
		lm := LinkModel{Uniform: 45}
		if i%2 == 1 {
			lm.Ranges = make([]float64, n)
			for j := range lm.Ranges {
				lm.Ranges[j] = rng.Range(25, 65)
			}
		}
		g := Build(UniformPositions(n, area, rng), area, lm, nil)
		for q := 0; q < 8; q++ {
			src := NodeID(rng.Intn(n))
			maxHops := rng.Intn(6) - 1
			scan.Run(g, src, maxHops)
			fresh := g.BoundedBFS(src, maxHops)
			if scan.Source != src || !slices.Equal(scan.Dist, fresh.Dist) || !slices.Equal(scan.Visited, fresh.Visited) {
				t.Fatalf("graph %d src %d maxHops %d: reused scan differs from a fresh BoundedBFS", i, src, maxHops)
			}
			for k := -1; k <= n+1; k++ {
				want := 0
				for _, d := range fresh.Dist {
					if d >= 0 && (k < 0 || int(d) < k) {
						want++
					}
				}
				if got := scan.Within(k); got != want {
					t.Fatalf("graph %d src %d maxHops %d: Within(%d) = %d, want %d", i, src, maxHops, k, got, want)
				}
			}
		}
	}
}

func TestComponents(t *testing.T) {
	// Two separated pairs plus an isolated node.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 100, Y: 0}, {X: 105, Y: 0}, {X: 200, Y: 200}}
	g := Build(pts, geom.Rect{W: 300, H: 300}, LinkModel{Uniform: 10}, nil)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 2 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes wrong: %v", comps)
	}
	if lc := g.LargestComponent(); len(lc) != 2 {
		t.Errorf("LargestComponent size %d", len(lc))
	}
}

func TestCensusOnPath(t *testing.T) {
	g := lineGraph(5)
	c := g.ComputeCensus()
	if c.Links != 4 {
		t.Errorf("Links = %d", c.Links)
	}
	if c.Diameter != 4 {
		t.Errorf("Diameter = %d, want 4", c.Diameter)
	}
	// Path P5: mean distance over ordered reachable pairs = 2.
	if !almost(c.AvgHops, 2, 1e-12) {
		t.Errorf("AvgHops = %v, want 2", c.AvgHops)
	}
	if c.LargestComponentFrac != 1 {
		t.Errorf("LCC = %v", c.LargestComponentFrac)
	}
	if !almost(c.MeanDegree, 8.0/5.0, 1e-12) {
		t.Errorf("MeanDegree = %v", c.MeanDegree)
	}
}

func TestCensusTriangleClustering(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 2.5, Y: 4}}
	g := Build(pts, geom.Rect{W: 10, H: 10}, LinkModel{Uniform: 6}, nil)
	c := g.ComputeCensus()
	if c.MeanClustering != 1 {
		t.Errorf("triangle clustering = %v, want 1", c.MeanClustering)
	}
	if c.Diameter != 1 {
		t.Errorf("triangle diameter = %d", c.Diameter)
	}
}

func TestCensusSampledAboveSourceCap(t *testing.T) {
	// Above censusSourceCap the Diameter/AvgHops pass samples sources at a
	// fixed stride. On a path graph node 0 is always sampled (stride
	// starts at 0) and reaches the far end, so even the sampled census
	// recovers the exact diameter; the structural fields stay exact.
	n := censusSourceCap*2 + 100
	g := lineGraph(n)
	c := g.ComputeCensus()
	if c.Links != n-1 {
		t.Errorf("Links = %d, want %d", c.Links, n-1)
	}
	if c.Diameter != n-1 {
		t.Errorf("Diameter = %d, want %d", c.Diameter, n-1)
	}
	if c.AvgHops <= 0 {
		t.Errorf("AvgHops = %v, want > 0", c.AvgHops)
	}
	if c.LargestComponentFrac != 1 {
		t.Errorf("LCC = %v, want 1", c.LargestComponentFrac)
	}
}

func TestCensusEmptyAndSingleton(t *testing.T) {
	g := Build(nil, geom.Rect{W: 10, H: 10}, LinkModel{Uniform: 5}, nil)
	c := g.ComputeCensus()
	if c.N != 0 || c.Links != 0 || c.Diameter != 0 {
		t.Errorf("empty census = %+v", c)
	}
	g1 := Build([]geom.Point{{X: 1, Y: 1}}, geom.Rect{W: 10, H: 10}, LinkModel{Uniform: 5}, nil)
	c1 := g1.ComputeCensus()
	if c1.N != 1 || c1.AvgHops != 0 || c1.LargestComponentFrac != 1 {
		t.Errorf("singleton census = %+v", c1)
	}
}

func TestUniformPositionsInArea(t *testing.T) {
	rng := xrand.New(9)
	area := geom.Rect{W: 710, H: 710}
	for _, p := range UniformPositions(500, area, rng) {
		if !area.Contains(p) {
			t.Fatalf("position %v outside area", p)
		}
	}
}

func TestQuickBFSTriangleInequalityOverEdges(t *testing.T) {
	// For any edge (u,v): |dist(s,u) - dist(s,v)| <= 1.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		area := geom.Rect{W: 300, H: 300}
		n := 30 + rng.Intn(80)
		g := Build(UniformPositions(n, area, rng), area, LinkModel{Uniform: 60}, nil)
		src := NodeID(rng.Intn(n))
		res := g.BFS(src)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(NodeID(u)) {
				du, dv := res.Dist[u], res.Dist[v]
				if (du < 0) != (dv < 0) {
					return false // adjacent nodes must be co-reachable
				}
				if du >= 0 && (du-dv > 1 || dv-du > 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickBoundedBFSPrefixOfFull(t *testing.T) {
	// A bounded BFS must agree with the full BFS on all nodes within bound.
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		area := geom.Rect{W: 300, H: 300}
		n := 30 + rng.Intn(80)
		g := Build(UniformPositions(n, area, rng), area, LinkModel{Uniform: 50}, nil)
		src := NodeID(rng.Intn(n))
		r := 1 + rng.Intn(5)
		full := g.BFS(src)
		bounded := g.BoundedBFS(src, r)
		for v := 0; v < n; v++ {
			if full.Dist[v] >= 0 && int(full.Dist[v]) <= r {
				if bounded.Dist[v] != full.Dist[v] {
					return false
				}
			} else if bounded.Dist[v] != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickComponentsPartitionNodes(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		area := geom.Rect{W: 500, H: 500}
		n := 20 + rng.Intn(100)
		g := Build(UniformPositions(n, area, rng), area, LinkModel{Uniform: 40}, nil)
		seen := make(map[NodeID]bool)
		total := 0
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
			total += len(comp)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func almost(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func BenchmarkBuild500(b *testing.B) {
	rng := xrand.New(1)
	area := geom.Rect{W: 710, H: 710}
	pts := UniformPositions(500, area, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, area, LinkModel{Uniform: 50}, nil)
	}
}

func BenchmarkCensus500(b *testing.B) {
	rng := xrand.New(1)
	area := geom.Rect{W: 710, H: 710}
	g := Build(UniformPositions(500, area, rng), area, LinkModel{Uniform: 50}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ComputeCensus()
	}
}
