package card

import (
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

func TestReachabilityNoContacts(t *testing.T) {
	net := lineNet(20)
	cfg := Config{R: 3, MaxContactDist: 10, NoC: 2, Method: EM}
	p := newProtocol(t, net, cfg, 70)
	// Node 10's 3-hop neighborhood on a 20-node line: 7 nodes -> 35 %.
	got := p.Reachability(10, 1)
	if got != 35 {
		t.Errorf("Reachability = %v, want 35", got)
	}
}

func TestReachabilityGrowsWithContacts(t *testing.T) {
	net := staticNet(80, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 6, Method: EM}
	p := newProtocol(t, net, cfg, 71)
	before := p.MeanReachability(1)
	selectAll(p, 0)
	after := p.MeanReachability(1)
	if after <= before {
		t.Errorf("reachability did not grow: %.1f -> %.1f", before, after)
	}
}

func TestReachabilityMonotoneInDepth(t *testing.T) {
	net := staticNet(81, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 12, NoC: 5, Method: EM}
	p := newProtocol(t, net, cfg, 72)
	selectAll(p, 0)
	for u := NodeID(0); u < 30; u++ {
		prev := -1.0
		for d := 1; d <= 3; d++ {
			v := p.Reachability(u, d)
			if v < prev {
				t.Fatalf("node %d: reachability decreased with depth: %v -> %v", u, prev, v)
			}
			prev = v
		}
	}
}

func TestReachableSetContainsNeighborhoods(t *testing.T) {
	net := staticNet(82, 250, 50)
	cfg := Config{R: 3, MaxContactDist: 14, NoC: 4, Method: EM}
	p := newProtocol(t, net, cfg, 73)
	selectAll(p, 0)
	nb := p.Neighborhood()
	for u := NodeID(0); u < 20; u++ {
		set := p.reachableSet(u, 1)
		for _, w := range nb.Members(u) {
			if !set.Contains(int(w)) {
				t.Fatalf("node %d: own neighborhood not in reachable set", u)
			}
		}
		for _, c := range p.Table(u).Contacts() {
			for _, w := range nb.Members(c.ID) {
				if !set.Contains(int(w)) {
					t.Fatalf("node %d: contact %d neighborhood not in reachable set", u, c.ID)
				}
			}
		}
	}
}

func TestReachabilityBounds(t *testing.T) {
	net := staticNet(83, 200, 50)
	cfg := Config{R: 3, MaxContactDist: 14, NoC: 10, Method: EM}
	p := newProtocol(t, net, cfg, 74)
	selectAll(p, 0)
	for u := NodeID(0); int(u) < net.N(); u++ {
		v := p.Reachability(u, 3)
		if v < 0 || v > 100 {
			t.Fatalf("reachability %v out of [0,100]", v)
		}
	}
	m := p.MeanReachability(1)
	if m <= 0 || m > 100 {
		t.Fatalf("mean reachability %v out of (0,100]", m)
	}
}

func TestReachabilityCountsSelf(t *testing.T) {
	// An isolated node reaches exactly itself: 1/N.
	net := customNet(t, [][2]float64{{0, 0}, {500, 500}})
	cfg := Config{R: 2, MaxContactDist: 6, NoC: 1, Method: EM}
	p := newProtocol(t, net, cfg, 75)
	if got := p.Reachability(0, 1); got != 50 {
		t.Errorf("isolated node reachability = %v, want 50 (self of N=2)", got)
	}
}

// churnedClique builds an n-node clique (every pair adjacent) with an
// exponential up/down churn schedule, advanced until some — but not all —
// nodes are down, applying the engine's serial expiry step per refresh.
func churnedClique(t *testing.T, n int) (*manet.Network, *Protocol) {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		// All nodes within 15 m of each other: a clique at the 15 m range.
		pts[i] = geom.Point{X: float64(i % 4), Y: float64(i / 4)}
	}
	area := geom.Rect{W: 100, H: 100}
	churn, err := manet.NewChurn(n, manet.ChurnConfig{MeanUp: 4, MeanDown: 4}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{
		Link: topology.LinkModel{Uniform: 15}, Churn: churn,
	}, xrand.New(8))
	cfg := Config{R: 1, MaxContactDist: 3, NoC: 2, Method: EM}
	p := newProtocol(t, net, cfg, 76)
	for tick := 1; tick <= 400; tick++ {
		net.RefreshAt(float64(tick) * 0.5)
		// Mirror the engine's refresh consequences: departures expire state.
		p.ExpireNodes(net.ChurnedDown())
		for _, v := range net.ChurnedUp() {
			p.ResetNode(v)
		}
		if up := net.UpCount(); up > 0 && up < n {
			return net, p
		}
	}
	t.Fatal("churn schedule never produced a partially-down snapshot")
	return nil, nil
}

// TestReachabilityChurnUpNodesOnly is the regression test for the churn
// deflation bug: on a clique every up node can reach the whole live
// population, so reachability must report 100 % no matter how many nodes
// are down. The old N-denominator (and all-nodes mean) reported
// 100·up/N instead, silently conflating churn duty cycle with contact
// quality.
func TestReachabilityChurnUpNodesOnly(t *testing.T) {
	const n = 16
	net, p := churnedClique(t, n)
	up := net.UpCount()
	t.Logf("snapshot: %d/%d nodes up", up, n)
	for u := NodeID(0); int(u) < n; u++ {
		got := p.Reachability(u, 1)
		switch {
		case net.Down(u) && got != 0:
			t.Errorf("down node %d reports reachability %v, want 0", u, got)
		case !net.Down(u) && got != 100:
			t.Errorf("up node %d on a clique reports %v%%, want 100 (up=%d)", u, got, up)
		}
	}
	if m := p.MeanReachability(1); m != 100 {
		t.Errorf("MeanReachability = %v, want 100 over the %d up nodes", m, up)
	}
}

func TestEMReachesAtLeastPM(t *testing.T) {
	// Paper Fig. 3: EM achieves higher reachability than PM for equal NoC.
	// Statistical claim — compare means over a few seeds with a tolerance.
	var em, pm float64
	for seed := uint64(0); seed < 3; seed++ {
		for _, m := range []Method{EM, PM2} {
			net := staticNet(300+seed, 300, 50)
			cfg := Config{R: 3, MaxContactDist: 20, NoC: 5, Method: m}
			p := newProtocol(t, net, cfg, 400+seed)
			selectAll(p, 0)
			if m == EM {
				em += p.MeanReachability(1)
			} else {
				pm += p.MeanReachability(1)
			}
		}
	}
	if em < pm*0.95 {
		t.Errorf("EM mean reachability %.1f noticeably below PM %.1f", em/3, pm/3)
	}
}
