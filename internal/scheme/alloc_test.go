package scheme

import (
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/resource"
	"card/internal/topology"
	"card/internal/xrand"
)

// TestBaselineDiscoverAllocatesNothing pins the reusable scan under the
// flooding, expanding-ring and rendezvous workers: once a worker has
// scanned the field, a lookup allocates nothing — a found lookup, one
// whose only holder is out of reach, and a dead search from an isolated
// source alike.
func TestBaselineDiscoverAllocatesNothing(t *testing.T) {
	// 999 nodes uniform over a 1000 m square plus node 999, isolated in a
	// strip more than one radio range to the east.
	const n, lone = 1000, NodeID(999)
	area := geom.Rect{W: 1100, H: 1000}
	rng := xrand.New(4)
	pts := topology.UniformPositions(n-1, geom.Rect{W: 1000, H: 1000}, rng)
	pts = append(pts, geom.Point{X: 1090, Y: 500})
	net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 60}}, rng.Derive(1))
	comp := net.Graph().LargestComponent()
	src, holder := comp[0], comp[len(comp)-1]
	grid, err := NewRegionGrid(area, defaultRegionsPerSide(area, 60))
	if err != nil {
		t.Fatal(err)
	}
	// The held key must not rendezvous in the isolated node's own region,
	// or that node's lookup would reach a gate instead of dying.
	held := resource.ID(1)
	for grid.RegionOf(held) == grid.RegionAt(pts[lone]) {
		held++
	}
	stranded := held + 1
	dir := resource.NewDirectory(n)
	dir.Place(held, holder)
	dir.Place(stranded, lone)
	lookups := []struct {
		name string
		src  NodeID
		id   resource.ID
	}{
		{"found", src, held},
		{"holder unreachable", src, stranded},
		{"isolated source", lone, held},
	}
	for _, name := range []string{"flood", "ring", "rendezvous"} {
		s, err := New(name, Env{Net: net, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		s.Setup()
		w := s.Worker()
		for _, l := range lookups {
			w.Discover(l.src, l.id)
			if got := testing.AllocsPerRun(10, func() { w.Discover(l.src, l.id) }); got != 0 {
				t.Errorf("%s %s: %v allocations per Discover, want 0", name, l.name, got)
			}
		}
		if r := w.Discover(src, held); !r.Found || r.Holder != holder {
			t.Errorf("%s: found lookup = %+v, want holder %d", name, r, holder)
		}
		if r := w.Discover(lone, held); r.Found {
			t.Errorf("%s: isolated lookup = %+v, want a dead search", name, r)
		}
	}
}
