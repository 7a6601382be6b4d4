package flood

import (
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

var area = geom.Rect{W: 710, H: 710}

func lineNet(n int) *manet.Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	a := geom.Rect{W: float64(n) * 10, H: 10}
	return manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
}

func randomNet(seed uint64, n int) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, area, rng)
	return manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 50}}, xrand.New(seed))
}

func TestFloodFindsTargetOnLine(t *testing.T) {
	net := lineNet(10)
	res := Query(net, net.Recorder(), 0, 9, -1, true)
	if !res.Found {
		t.Fatal("flood did not find a connected target")
	}
	if res.PathHops != 9 {
		t.Errorf("PathHops = %d, want 9", res.PathHops)
	}
	// Transmissions: nodes 0..8 rebroadcast (target 9 answers) = 9, plus
	// 9 reply hops = 18.
	if res.Messages != 18 {
		t.Errorf("Messages = %d, want 18", res.Messages)
	}
}

func TestFloodWithoutReplyCounting(t *testing.T) {
	net := lineNet(10)
	res := Query(net, net.Recorder(), 0, 9, -1, false)
	if res.Messages != 9 {
		t.Errorf("Messages = %d, want 9 (no reply)", res.Messages)
	}
}

func TestFloodUnreachableTarget(t *testing.T) {
	// Two disconnected pairs.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 500, Y: 0}, {X: 510, Y: 0}}
	a := geom.Rect{W: 600, H: 10}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	res := Query(net, net.Recorder(), 0, 3, -1, true)
	if res.Found {
		t.Fatal("found target in another component")
	}
	if res.PathHops != -1 {
		t.Errorf("PathHops = %d, want -1", res.PathHops)
	}
	// Both nodes of src's component transmit.
	if res.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Messages)
	}
}

func TestFloodCostScalesWithComponent(t *testing.T) {
	// Flooding traffic ~ component size: the paper's core scalability
	// complaint about flooding.
	small := randomNet(5, 250)
	large := randomNet(5, 1000)
	rs := Query(small, small.Recorder(), 0, 1, -1, false)
	rl := Query(large, large.Recorder(), 0, 1, -1, false)
	if rl.Messages <= rs.Messages {
		t.Errorf("flood cost did not scale: N=250 -> %d, N=1000 -> %d", rs.Messages, rl.Messages)
	}
}

func TestQueryTTLBounds(t *testing.T) {
	net := lineNet(20)
	res := Query(net, net.Recorder(), 0, 15, 5, true)
	if res.Found {
		t.Fatal("TTL-5 flood found a 15-hop target")
	}
	// Nodes 0..4 rebroadcast; node 5 (at TTL) receives but does not relay.
	if res.Messages != 5 {
		t.Errorf("Messages = %d, want 5", res.Messages)
	}
	res2 := Query(net, net.Recorder(), 0, 4, 5, false)
	if !res2.Found || res2.PathHops != 4 {
		t.Errorf("TTL-5 flood missed a 4-hop target: %+v", res2)
	}
}

func TestExpandingRingCheaperForNearTargets(t *testing.T) {
	netA := lineNet(60)
	ring := ExpandingRing(netA, netA.Recorder(), 0, 3, DoublingTTLs(64), false)
	netB := lineNet(60)
	full := Query(netB, netB.Recorder(), 0, 3, -1, false)
	if !ring.Found || !full.Found {
		t.Fatal("both searches should find the target")
	}
	if ring.Messages >= full.Messages {
		t.Errorf("expanding ring (%d msgs) not cheaper than full flood (%d) for a near target",
			ring.Messages, full.Messages)
	}
}

func TestExpandingRingFindsFarTargets(t *testing.T) {
	net := lineNet(40)
	res := ExpandingRing(net, net.Recorder(), 0, 39, DoublingTTLs(64), false)
	if !res.Found {
		t.Fatal("expanding ring never found far target")
	}
	if res.PathHops != 39 {
		t.Errorf("PathHops = %d, want 39", res.PathHops)
	}
}

func TestExpandingRingUnreachable(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 500, Y: 0}}
	a := geom.Rect{W: 600, H: 10}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	res := ExpandingRing(net, net.Recorder(), 0, 1, DoublingTTLs(8), false)
	if res.Found {
		t.Fatal("found unreachable target")
	}
}

func TestDoublingTTLs(t *testing.T) {
	got := DoublingTTLs(10)
	want := []int{1, 2, 4, 8, -1}
	if len(got) != len(want) {
		t.Fatalf("DoublingTTLs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DoublingTTLs = %v, want %v", got, want)
		}
	}
}

func TestFloodSelfQuery(t *testing.T) {
	net := lineNet(5)
	res := Query(net, net.Recorder(), 2, 2, -1, true)
	if !res.Found || res.PathHops != 0 {
		t.Errorf("self query = %+v", res)
	}
}

// TestFloodChargesComponent pins the dead-search primitive: a target-less
// flood costs exactly one broadcast per node of src's component.
func TestFloodChargesComponent(t *testing.T) {
	net := lineNet(10)
	r := Flood(net, net.Recorder(), 4)
	if r.Found || r.PathHops != -1 {
		t.Errorf("target-less flood reported a find: %+v", r)
	}
	if r.Messages != 10 {
		t.Errorf("flood cost %d messages, want 10 (component size)", r.Messages)
	}
	if got := net.Totals().Get(manet.CatQuery); got != 10 {
		t.Errorf("recorder saw %d query transmissions, want 10", got)
	}
}

// TestRingSweepMatchesDeadExpandingRing pins that the explicit dead-search
// sweep charges exactly what an ExpandingRing escalation toward an
// unreachable destination charges — the refactor removes the proxy
// target from the call, not any cost.
func TestRingSweepMatchesDeadExpandingRing(t *testing.T) {
	// Two components: a 6-node line and one far node (id 6, unreachable).
	pts := make([]geom.Point, 6)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	pts = append(pts, geom.Point{X: 500, Y: 500})
	a := geom.Rect{W: 600, H: 600}
	build := func() *manet.Network {
		return manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	}
	ttls := DoublingTTLs(8)
	var rec manet.Counters
	ref := ExpandingRing(build(), &rec, 0, 6, ttls, false)
	got := RingSweep(build(), &rec, 0, ttls)
	if got.Found || got.PathHops != -1 {
		t.Errorf("RingSweep reported a find: %+v", got)
	}
	if got.Messages != ref.Messages {
		t.Errorf("RingSweep cost %d != dead ExpandingRing cost %d", got.Messages, ref.Messages)
	}
	// The sweep must cost more than one plain flood: every failed ring is
	// charged before the final unbounded one.
	if full := Flood(build(), &rec, 0); got.Messages <= full.Messages {
		t.Errorf("sweep (%d) not above one component flood (%d)", got.Messages, full.Messages)
	}
}
