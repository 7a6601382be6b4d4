package topology

import (
	"testing"

	"card/internal/geom"
	"card/internal/xrand"
)

// graphsEqual reports full structural equality: positions, links,
// per-node sorted out-adjacency, and — for directed snapshots — the
// in-adjacency and per-node ranges as well.
func graphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("node count: want %d, got %d", want.N(), got.N())
	}
	if want.Directed() != got.Directed() {
		t.Fatalf("directed: want %v, got %v", want.Directed(), got.Directed())
	}
	if want.Links() != got.Links() {
		t.Errorf("links: want %d, got %d", want.Links(), got.Links())
	}
	for u := 0; u < want.N(); u++ {
		if want.Pos(NodeID(u)) != got.Pos(NodeID(u)) {
			t.Fatalf("node %d position: want %v, got %v", u, want.Pos(NodeID(u)), got.Pos(NodeID(u)))
		}
		if want.RangeOf(NodeID(u)) != got.RangeOf(NodeID(u)) {
			t.Fatalf("node %d range: want %v, got %v", u, want.RangeOf(NodeID(u)), got.RangeOf(NodeID(u)))
		}
		w, g := want.Neighbors(NodeID(u)), got.Neighbors(NodeID(u))
		if len(w) != len(g) {
			t.Fatalf("node %d degree: want %v, got %v", u, w, g)
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("node %d adjacency: want %v, got %v", u, w, g)
			}
		}
		wi, gi := want.InNeighbors(NodeID(u)), got.InNeighbors(NodeID(u))
		if len(wi) != len(gi) {
			t.Fatalf("node %d in-degree: want %v, got %v", u, wi, gi)
		}
		for i := range wi {
			if wi[i] != gi[i] {
				t.Fatalf("node %d in-adjacency: want %v, got %v", u, wi, gi)
			}
		}
	}
}

func TestBuildNaiveMatchesGrid(t *testing.T) {
	area := geom.Rect{W: 400, H: 300}
	rng := xrand.New(11)
	for _, n := range []int{1, 2, 10, 120, 400} {
		pos := UniformPositions(n, area, rng)
		lm := LinkModel{Uniform: 55}
		graphsEqual(t, buildNaive(pos, area, lm, nil), Build(pos, area, lm, nil))
	}
}

// TestBuilderMatchesFullRebuild drives a Builder through a random mobility
// trace where a random subset of nodes moves each step (including the
// empty and full subsets) and checks that every incremental snapshot is
// structurally identical to a from-scratch build — and both to the naive
// oracle, since Build is itself a one-shot Builder.
func TestBuilderMatchesFullRebuild(t *testing.T) {
	const n = 250
	area := geom.Rect{W: 600, H: 600}
	lm := LinkModel{Uniform: 60}
	rng := xrand.New(7)
	pos := UniformPositions(n, area, rng)
	b := NewBuilder(n, area, lm)
	check := func() {
		t.Helper()
		want := buildNaive(pos, area, lm, nil)
		graphsEqual(t, want, Build(pos, area, lm, nil))
		graphsEqual(t, want, b.Update(pos, nil, nil))
	}
	check()

	for step := 0; step < 60; step++ {
		// Vary the churn: steps cycle through no movement, a handful of
		// movers, a large subset (above the full-rebuild threshold), and
		// everyone.
		var movers int
		switch step % 4 {
		case 0:
			movers = 0
		case 1:
			movers = 5
		case 2:
			movers = n / 2
		case 3:
			movers = n
		}
		for k := 0; k < movers; k++ {
			i := rng.Intn(n)
			pos[i] = area.Clamp(geom.Point{
				X: pos[i].X + rng.Range(-80, 80),
				Y: pos[i].Y + rng.Range(-80, 80),
			})
		}
		check()
	}
}

// TestBuilderTeleport moves one node across the whole area — exercising
// grid removal and reinsertion into distant buckets.
func TestBuilderTeleport(t *testing.T) {
	area := geom.Rect{W: 500, H: 500}
	lm := LinkModel{Uniform: 80}
	rng := xrand.New(3)
	pos := UniformPositions(100, area, rng)
	b := NewBuilder(100, area, lm)
	b.Update(pos, nil, nil)
	for step := 0; step < 20; step++ {
		i := rng.Intn(100)
		pos[i] = geom.Point{X: rng.Range(0, area.W), Y: rng.Range(0, area.H)}
		graphsEqual(t, buildNaive(pos, area, lm, nil), b.Update(pos, nil, nil))
	}
}

func TestBuilderUpdateMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched position count")
		}
	}()
	b := NewBuilder(4, geom.Rect{W: 10, H: 10}, LinkModel{Uniform: 2})
	b.Update(make([]geom.Point, 3), nil, nil)
}
