package neighborhood

import (
	"testing"
	"testing/quick"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

var area = geom.Rect{W: 710, H: 710}

// lineNet builds n nodes 10 m apart on a line with 15 m range (path graph).
func lineNet(n int) *manet.Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	return manet.NewNetwork(mobility.NewStatic(pts, geom.Rect{W: float64(n) * 10, H: 10}), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
}

// routeOf is the allocating form the tests read. It appends onto a
// sentinel prefix so every use also checks the AppendRoute contract: the
// prefix survives, and a miss returns dst exactly as passed.
func routeOf(t testing.TB, p Provider, u, x NodeID) []NodeID {
	t.Helper()
	got, ok := p.AppendRoute([]NodeID{topology.None}, u, x)
	if len(got) == 0 || got[0] != topology.None {
		t.Fatalf("AppendRoute(%d,%d) clobbered dst: %v", u, x, got)
	}
	if !ok {
		if len(got) != 1 {
			t.Fatalf("AppendRoute(%d,%d) missed but returned %v", u, x, got)
		}
		return nil
	}
	return got[1:]
}

func randomNet(seed uint64, n int, txRange float64) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, area, rng)
	return manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: txRange}}, xrand.New(seed+1))
}

func TestOracleRadiusValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("radius 0 did not panic")
		}
	}()
	NewOracle(lineNet(3), 0)
}

func TestOracleNeighborhoodOnPath(t *testing.T) {
	net := lineNet(10)
	o := NewOracle(net, 3)
	if o.R() != 3 {
		t.Fatalf("R = %d", o.R())
	}
	members := o.Members(0)
	// Node 0's 3-hop neighborhood on a path: {0,1,2,3}.
	if got := len(members); got != 4 {
		t.Fatalf("neighborhood size = %d, want 4 (%v)", got, members)
	}
	for x := 0; x <= 3; x++ {
		if !o.Contains(0, NodeID(x)) {
			t.Errorf("Contains(0,%d) = false", x)
		}
		if got := o.Dist(0, NodeID(x)); got != x {
			t.Errorf("Dist(0,%d) = %d, want %d", x, got, x)
		}
	}
	if o.Contains(0, 4) {
		t.Error("Contains(0,4) = true beyond radius")
	}
	if o.Dist(0, 4) != -1 {
		t.Error("Dist beyond radius must be -1")
	}
}

func TestOracleSelfMembership(t *testing.T) {
	o := NewOracle(lineNet(5), 2)
	for u := NodeID(0); u < 5; u++ {
		if !o.Contains(u, u) {
			t.Errorf("node %d not in its own neighborhood", u)
		}
		if o.Dist(u, u) != 0 {
			t.Errorf("Dist(%d,%d) != 0", u, u)
		}
	}
}

func TestOracleEdgeNodes(t *testing.T) {
	net := lineNet(10)
	o := NewOracle(net, 3)
	// Node 5's edge nodes at exactly 3 hops: {2, 8}.
	edges := o.EdgeNodes(5)
	if len(edges) != 2 {
		t.Fatalf("EdgeNodes(5) = %v", edges)
	}
	seen := map[NodeID]bool{}
	for _, e := range edges {
		seen[e] = true
	}
	if !seen[2] || !seen[8] {
		t.Errorf("EdgeNodes(5) = %v, want {2 8}", edges)
	}
	// Node 0 near the end: only node 3 is at exactly 3 hops.
	if e0 := o.EdgeNodes(0); len(e0) != 1 || e0[0] != 3 {
		t.Errorf("EdgeNodes(0) = %v, want [3]", e0)
	}
}

func TestOracleRoute(t *testing.T) {
	net := lineNet(8)
	o := NewOracle(net, 4)
	route := routeOf(t, o, 1, 5)
	want := []NodeID{1, 2, 3, 4, 5}
	if len(route) != len(want) {
		t.Fatalf("Route(1,5) = %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("Route(1,5) = %v, want %v", route, want)
		}
	}
	if routeOf(t, o, 1, 7) != nil {
		t.Error("Route beyond radius must be nil")
	}
	if r := routeOf(t, o, 2, 2); len(r) != 1 || r[0] != 2 {
		t.Errorf("Route(u,u) = %v", r)
	}
}

func TestOracleMatchesBoundedBFS(t *testing.T) {
	net := randomNet(33, 200, 50)
	o := NewOracle(net, 3)
	g := net.Graph()
	for u := NodeID(0); int(u) < g.N(); u += 17 {
		bfs := g.BoundedBFS(u, 3)
		for v := NodeID(0); int(v) < g.N(); v++ {
			wantIn := bfs.Dist[v] >= 0
			if o.Contains(u, v) != wantIn {
				t.Fatalf("Contains(%d,%d) = %v, BFS says %v", u, v, !wantIn, wantIn)
			}
			if wantIn && o.Dist(u, v) != int(bfs.Dist[v]) {
				t.Fatalf("Dist(%d,%d) = %d, BFS %d", u, v, o.Dist(u, v), bfs.Dist[v])
			}
		}
	}
}

func TestOracleCacheInvalidationOnRefresh(t *testing.T) {
	// Two nodes that drift apart: neighborhood must shrink after refresh.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}
	m, err := mobility.NewRandomWalk(pts, geom.Rect{W: 1000, H: 10}, 50, 100, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	net := manet.NewNetwork(m, manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(6))
	o := NewOracle(net, 2)
	before := len(o.Members(0))
	// Walk them for a while; with 50 m/s in a 1000 m corridor they will
	// separate beyond 15 m at some refresh.
	for i := 1; i <= 50; i++ {
		net.RefreshAt(float64(i))
		if len(o.Members(0)) != before {
			return // cache refreshed and view changed: success
		}
	}
	t.Error("oracle view never changed despite mobility")
}

func TestOverlapsPredicate(t *testing.T) {
	net := lineNet(12)
	o := NewOracle(net, 2)
	// Neighborhood(0) = {0..2}, neighborhood(3) = {1..5}: overlap.
	if !Overlaps(o, 0, 3) {
		t.Error("Overlaps(0,3) = false, want true")
	}
	// Neighborhood(0) = {0..2}, neighborhood(6) = {4..8}: disjoint.
	if Overlaps(o, 0, 6) {
		t.Error("Overlaps(0,6) = true, want false")
	}
}

func TestQuickOracleRoutesAreValidPaths(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		net := randomNet(seed, 80+rng.Intn(60), 60)
		o := NewOracle(net, 3)
		g := net.Graph()
		for probe := 0; probe < 20; probe++ {
			u := NodeID(rng.Intn(g.N()))
			members := o.Members(u)
			x := members[rng.Intn(len(members))]
			route := routeOf(t, o, u, x)
			if route == nil || route[0] != u || route[len(route)-1] != x {
				return false
			}
			if len(route)-1 != o.Dist(u, x) {
				return false
			}
			for i := 0; i+1 < len(route); i++ {
				if !g.Adjacent(route[i], route[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickEdgeNodesAtExactlyR(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		net := randomNet(seed, 100, 55)
		r := 1 + rng.Intn(4)
		o := NewOracle(net, r)
		for probe := 0; probe < 10; probe++ {
			u := NodeID(rng.Intn(net.N()))
			for _, e := range o.EdgeNodes(u) {
				if o.Dist(u, e) != r {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRetainWithoutWarmStaysBounded covers the caller that never warms —
// serial rounds and query fan-outs read views on demand: dropping and
// refilling the same views refresh after refresh must not grow the warm
// list without bound, and a warm call afterwards still fills every slot.
func TestRetainWithoutWarmStaysBounded(t *testing.T) {
	const n = 40
	net := lineNet(n) // static: any Retain set is sound
	o := NewOracle(net, 2)
	o.WarmAll()
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	for step := 1; step <= 10; step++ {
		net.RefreshAt(float64(step))
		o.Retain(all)
		for _, u := range all {
			o.Members(u) // on-demand refill, which does not delist
		}
		if len(o.missing) > 2*n {
			t.Fatalf("refresh %d: warm list holds %d ids for %d nodes", step, len(o.missing), n)
		}
	}
	net.RefreshAt(11)
	o.Retain(all[:n/2])
	o.WarmAll()
	for u := range o.slots {
		if o.slots[u].Load() == nil {
			t.Fatalf("view %d missing after WarmAll", u)
		}
	}
}
