package scheme

import (
	"math"
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/resource"
	"card/internal/topology"
	"card/internal/xrand"
)

func TestNewRegionGridErrors(t *testing.T) {
	if _, err := NewRegionGrid(geom.Rect{W: 100, H: 100}, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewRegionGrid(geom.Rect{W: 0, H: 100}, 2); err == nil {
		t.Error("empty area accepted")
	}
}

func TestRegionGridGeometry(t *testing.T) {
	g, err := NewRegionGrid(geom.Rect{W: 100, H: 100}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.K() != 4 || g.Regions() != 16 {
		t.Fatalf("K = %d, Regions = %d", g.K(), g.Regions())
	}
	cases := []struct {
		p    geom.Point
		want int
	}{
		{geom.Point{X: 0, Y: 0}, 0},
		{geom.Point{X: 99, Y: 0}, 3},
		{geom.Point{X: 0, Y: 99}, 12},
		{geom.Point{X: 99, Y: 99}, 15},
		// Far edges and out-of-area points clamp into the grid.
		{geom.Point{X: 100, Y: 100}, 15},
		{geom.Point{X: -5, Y: -5}, 0},
		{geom.Point{X: 500, Y: 42}, 7},
	}
	for _, c := range cases {
		if got := g.RegionAt(c.p); got != c.want {
			t.Errorf("RegionAt(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestRegionOfInBounds(t *testing.T) {
	g, err := NewRegionGrid(geom.Rect{W: 710, H: 355}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := -500; id < 500; id++ {
		r := g.RegionOf(resource.ID(id))
		if r < 0 || r >= g.Regions() {
			t.Fatalf("RegionOf(%d) = %d out of [0,%d)", id, r, g.Regions())
		}
		if r2 := g.RegionOf(resource.ID(id)); r2 != r {
			t.Fatalf("RegionOf(%d) unstable: %d then %d", id, r, r2)
		}
	}
}

func TestDefaultRegionsPerSide(t *testing.T) {
	cases := []struct {
		area geom.Rect
		tx   float64
		want int
	}{
		{geom.Rect{W: 100, H: 100}, 0, 1},    // degenerate range
		{geom.Rect{W: 100, H: 100}, 50, 1},   // too small to split
		{geom.Rect{W: 1000, H: 800}, 50, 4},  // min side / (4·tx)
		{geom.Rect{W: 4000, H: 4000}, 50, 8}, // clamped
	}
	for _, c := range cases {
		if got := defaultRegionsPerSide(c.area, c.tx); got != c.want {
			t.Errorf("defaultRegionsPerSide(%v, %g) = %d, want %d", c.area, c.tx, got, c.want)
		}
	}
}

// FuzzRegionHash pins the rendezvous hash contract: every key maps to
// exactly one in-bounds region, the map is stable across calls and across
// independently built grids, and the registration and lookup paths agree
// on the region for every key.
func FuzzRegionHash(f *testing.F) {
	f.Add(int32(0), uint8(0), 100.0, 100.0)
	f.Add(int32(-1), uint8(6), 710.0, 355.5)
	f.Add(int32(1<<30), uint8(15), 1.5, 2000.0)
	f.Add(int32(-1<<31), uint8(255), 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, key int32, kRaw uint8, w, h float64) {
		k := 1 + int(kRaw%16)
		if !(w > 0) || math.IsInf(w, 0) {
			w = 100
		}
		if !(h > 0) || math.IsInf(h, 0) {
			h = 100
		}
		area := geom.Rect{W: w, H: h}
		g, err := NewRegionGrid(area, k)
		if err != nil {
			t.Fatal(err)
		}
		id := resource.ID(key)
		r := g.RegionOf(id)
		if r < 0 || r >= g.Regions() {
			t.Fatalf("RegionOf(%d) = %d out of [0,%d)", key, r, g.Regions())
		}
		if r2 := g.RegionOf(id); r2 != r {
			t.Fatalf("RegionOf(%d) unstable: %d then %d", key, r, r2)
		}
		g2, err := NewRegionGrid(area, k)
		if err != nil {
			t.Fatal(err)
		}
		if r2 := g2.RegionOf(id); r2 != r {
			t.Fatalf("RegionOf(%d) differs across grid instances: %d vs %d", key, r, r2)
		}
		s := &rendezvous{grid: g}
		if s.LookupRegion(id) != r {
			t.Fatalf("registration region %d != lookup region %d for key %d",
				r, s.LookupRegion(id), key)
		}
	})
}

// TestRendezvousEmptyRegionDeadSearch pins the degenerate geometry: when
// a key's rendezvous region has no residents, registration is deferred
// without charge and lookups degenerate to a component-sized dead flood.
func TestRendezvousEmptyRegionDeadSearch(t *testing.T) {
	// Cluster all 12 nodes in the lower-left quadrant of a 2×2 grid, fully
	// connected (30 m spacing, 60 m range): regions 1..3 are empty.
	area := geom.Rect{W: 400, H: 400}
	pts := make([]geom.Point, 12)
	for i := range pts {
		pts[i] = geom.Point{X: 10 + float64(i%4)*30, Y: 10 + float64(i/4)*30}
	}
	net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 60}}, xrand.New(5))
	grid, err := NewRegionGrid(area, 2)
	if err != nil {
		t.Fatal(err)
	}
	dead := resource.ID(-1)
	for id := 0; id < 64; id++ {
		if grid.RegionOf(resource.ID(id)) != 0 {
			dead = resource.ID(id)
			break
		}
	}
	if dead < 0 {
		t.Fatal("no key hashing outside region 0 in the probe range")
	}
	dir := resource.NewDirectory(net.N())
	dir.Place(dead, 0)
	s, err := New("rendezvous", Env{Net: net, Dir: dir, RegionsPerSide: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Setup()
	s.Maintain(1) // retries the registration; still no resident, still free
	if got := net.Totals().Get(manet.CatRegister); got != 0 {
		t.Fatalf("registration into an empty region charged %d transmissions", got)
	}
	w := s.Worker()
	r := w.Discover(5, dead)
	if r.Found {
		t.Fatalf("lookup through an empty region Found: %+v", r)
	}
	if r.Messages != 12 || r.PathHops != -1 {
		t.Fatalf("dead search = %+v, want component flood of 12 messages", r)
	}
	w.Flush()
	totals := net.Totals()
	if totals.Get(manet.CatQuery) != 12 || totals.Get(manet.CatRegister) != 0 {
		t.Fatalf("recorder totals after dead search: %v", totals)
	}
}

// TestRendezvousReregistersOnRegionExit pins the mobile-holder rule:
// once anchors drift out of their rendezvous regions, maintenance rounds
// must charge fresh registrations.
func TestRendezvousReregistersOnRegionExit(t *testing.T) {
	area := geom.Rect{W: 400, H: 400}
	rng := xrand.New(3)
	model, err := mobility.NewRandomWaypoint(80, area,
		mobility.RWPConfig{MinSpeed: 5, MaxSpeed: 15}, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := manet.NewNetwork(model, manet.Config{Link: topology.LinkModel{Uniform: 80}}, rng.Derive(1))
	dir := resource.NewDirectory(net.N())
	place := xrand.New(9)
	for id := 0; id < 10; id++ {
		dir.PlaceReplicas(resource.ID(id), 2, place)
	}
	s, err := New("rendezvous", Env{Net: net, Dir: dir, RegionsPerSide: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Setup()
	setup := net.Totals().Get(manet.CatRegister)
	if setup == 0 {
		t.Fatal("initial registration charged nothing")
	}
	// 60 simulated seconds at ≥5 m/s across 133 m regions: anchors move.
	for _, now := range []float64{20, 40, 60} {
		net.RefreshAt(now)
		s.Maintain(now)
	}
	if after := net.Totals().Get(manet.CatRegister); after <= setup {
		t.Fatalf("no re-registration after movement: %d then %d", setup, after)
	}
}
