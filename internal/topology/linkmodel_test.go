package topology

import (
	"testing"

	"card/internal/geom"
	"card/internal/xrand"
)

// heteroRanges draws per-node ranges spread ±spread around base, the way
// the engine's RangeSpread knob does.
func heteroRanges(n int, base, spread float64, rng *xrand.Rand) []float64 {
	ranges := make([]float64, n)
	for i := range ranges {
		ranges[i] = base * (1 + spread*rng.Range(-1, 1))
	}
	return ranges
}

// TestDirectedEdgesFollowRanges pins the core directed contract on a
// handcrafted pair: the long-range node hears nobody back.
func TestDirectedEdgesFollowRanges(t *testing.T) {
	area := geom.Rect{W: 200, H: 100}
	pos := []geom.Point{{X: 50, Y: 50}, {X: 100, Y: 50}} // 50 m apart
	lm := LinkModel{Uniform: 60, Ranges: []float64{100, 30}}
	for name, g := range map[string]*Graph{
		"naive": buildNaive(pos, area, lm, nil),
		"grid":  Build(pos, area, lm, nil),
	} {
		if !g.Directed() || g.ranges == nil {
			t.Fatalf("%s: graph not marked directed/heterogeneous", name)
		}
		if !g.Adjacent(0, 1) {
			t.Errorf("%s: 0→1 missing (dist 50 <= range 100)", name)
		}
		if g.Adjacent(1, 0) {
			t.Errorf("%s: 1→0 present (dist 50 > range 30)", name)
		}
		if g.Bidirectional(0, 1) || g.Bidirectional(1, 0) {
			t.Errorf("%s: asymmetric pair reported bidirectional", name)
		}
		if g.Links() != 1 {
			t.Errorf("%s: links = %d, want 1 directed edge", name, g.Links())
		}
		if in := g.InNeighbors(1); len(in) != 1 || in[0] != 0 {
			t.Errorf("%s: InNeighbors(1) = %v, want [0]", name, in)
		}
		if len(g.InNeighbors(0)) != 0 {
			t.Errorf("%s: InNeighbors(0) = %v, want empty", name, g.InNeighbors(0))
		}
		if g.RangeOf(0) != 100 || g.RangeOf(1) != 30 {
			t.Errorf("%s: RangeOf = (%v,%v), want (100,30)", name, g.RangeOf(0), g.RangeOf(1))
		}
		if g.TxRange() != 100 {
			t.Errorf("%s: TxRange = %v, want max range 100", name, g.TxRange())
		}
	}
}

// TestUniformLinkMatchesScalar pins "undirected is the directed case with
// one list per node" from the outside: a LinkModel whose Ranges are all
// equal must produce exactly the structure of the plain uniform model (the
// scalar snapshot is undirected, so the comparison goes through the
// accessors, not graphsEqual).
func TestUniformLinkMatchesScalar(t *testing.T) {
	const n, tx = 180, 55.0
	area := geom.Rect{W: 500, H: 500}
	rng := xrand.New(23)
	pos := UniformPositions(n, area, rng)
	ranges := make([]float64, n)
	for i := range ranges {
		ranges[i] = tx
	}

	scalar := Build(pos, area, LinkModel{Uniform: tx}, nil)
	uniform := Build(pos, area, LinkModel{Uniform: tx, Ranges: ranges}, nil)
	if !uniform.Directed() {
		t.Fatal("explicit-ranges graph should run the directed machinery")
	}
	if uniform.Links() != 2*scalar.Links() {
		t.Errorf("directed links = %d, want %d (twice the undirected count)",
			uniform.Links(), 2*scalar.Links())
	}
	for u := 0; u < n; u++ {
		w, g := scalar.Neighbors(NodeID(u)), uniform.Neighbors(NodeID(u))
		if len(w) != len(g) {
			t.Fatalf("node %d degree: scalar %v, uniform %v", u, w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("node %d adjacency: scalar %v, uniform %v", u, w, g)
			}
		}
		gi := uniform.InNeighbors(NodeID(u))
		for i := range w {
			if w[i] != gi[i] {
				t.Fatalf("node %d in-adjacency differs from out on a symmetric graph", u)
			}
		}
		if !scalarBidirAgree(scalar, uniform, NodeID(u)) {
			t.Fatalf("node %d: Bidirectional disagrees with scalar Adjacent", u)
		}
	}
}

func scalarBidirAgree(scalar, uniform *Graph, u NodeID) bool {
	for _, v := range scalar.Neighbors(u) {
		if !uniform.Bidirectional(u, v) {
			return false
		}
	}
	return true
}

// TestHeteroBuildersAgree is TestMaskedBuildersAgree for the directed
// layer: heterogeneous ranges, churn, movement, and partition barrier
// toggles drive the naive reference, the grid build, the scanning
// incremental builder, and the dirty-list incremental builder — all four
// must stay byte-identical, including in-adjacency.
func TestHeteroBuildersAgree(t *testing.T) {
	const n = 200
	area := geom.Rect{W: 600, H: 600}
	rng := xrand.New(29)
	pos := UniformPositions(n, area, rng)
	down := make([]bool, n)
	lm := LinkModel{
		Uniform:  60,
		Ranges:   heteroRanges(n, 60, 0.5, rng.Derive(1)),
		BarrierX: area.W / 2,
	}
	bScan := NewBuilder(n, area, lm)
	bDirty := NewBuilder(n, area, lm)

	check := func(dirty []NodeID) {
		t.Helper()
		want := buildNaive(pos, area, lm, down)
		graphsEqual(t, want, Build(pos, area, lm, down))
		graphsEqual(t, want, bScan.Update(pos, down, nil))
		graphsEqual(t, want, bDirty.Update(pos, down, dirty))
	}
	check(nil)

	mut := rng.Derive(2)
	for step := 0; step < 60; step++ {
		dirty := []NodeID{} // non-nil: "only these", even when empty
		// Movement: a varying subset drifts, including mass-move steps
		// that cross the full-rebuild threshold.
		movers := []int{0, 7, n / 2, n}[step%4]
		for k := 0; k < movers; k++ {
			i := mut.Intn(n)
			pos[i] = area.Clamp(geom.Point{
				X: pos[i].X + mut.Range(-70, 70),
				Y: pos[i].Y + mut.Range(-70, 70),
			})
			dirty = append(dirty, NodeID(i))
		}
		// Churn: flip a varying subset.
		flips := []int{3, 0, n / 3, 1}[step%4]
		for k := 0; k < flips; k++ {
			i := mut.Intn(n)
			down[i] = !down[i]
			dirty = append(dirty, NodeID(i))
		}
		// Partition: the barrier cuts the world in half every 10th step
		// and heals two steps later, while nodes keep moving.
		if step%10 == 4 {
			lm.BarrierActive = true
			bScan.SetBarrier(true)
			bDirty.SetBarrier(true)
		}
		if step%10 == 6 {
			lm.BarrierActive = false
			bScan.SetBarrier(false)
			bDirty.SetBarrier(false)
		}
		check(dirty)
	}
}

// TestBarrierForcesFullRebuild pins the Changed contract across a
// partition toggle: stationary nodes lose links, so the builder must
// report a full rebuild rather than an (empty) incremental diff.
func TestBarrierForcesFullRebuild(t *testing.T) {
	area := geom.Rect{W: 100, H: 100}
	pos := []geom.Point{{X: 45, Y: 50}, {X: 55, Y: 50}}
	lm := LinkModel{Uniform: 30, BarrierX: 50}
	b := NewBuilder(2, area, lm)
	g := b.Update(pos, nil, nil)
	if !g.Bidirectional(0, 1) {
		t.Fatal("pair should be linked before the partition")
	}

	b.SetBarrier(true)
	g = b.Update(pos, nil, nil)
	if g.Adjacent(0, 1) || g.Adjacent(1, 0) || g.Links() != 0 {
		t.Fatal("active barrier left links across the cut")
	}
	if _, all := b.Changed(); !all {
		t.Fatal("barrier toggle must report a full rebuild")
	}

	b.SetBarrier(false)
	g = b.Update(pos, nil, nil)
	if !g.Bidirectional(0, 1) {
		t.Fatal("healed partition did not restore the link")
	}
	if _, all := b.Changed(); !all {
		t.Fatal("barrier heal must report a full rebuild")
	}
}
