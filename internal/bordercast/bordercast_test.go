package bordercast

import (
	"testing"

	"card/internal/flood"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
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

func newBC(t *testing.T, net *manet.Network, zone int, qd QDMode) *Protocol {
	t.Helper()
	nb := neighborhood.NewOracle(net, zone)
	p, err := New(net, nb, Config{Zone: zone, QD: qd})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	net := lineNet(5)
	nb := neighborhood.NewOracle(net, 2)
	if _, err := New(net, nb, Config{Zone: 0}); err == nil {
		t.Error("zone 0 accepted")
	}
	if _, err := New(net, nb, Config{Zone: 3}); err == nil {
		t.Error("zone/provider mismatch accepted")
	}
	if _, err := New(net, nb, Config{Zone: 2, QD: QDMode(9)}); err == nil {
		t.Error("bad QD mode accepted")
	}
}

func TestQDModeString(t *testing.T) {
	if QDNone.String() != "none" || QD1.String() != "QD1" || QD2.String() != "QD2" {
		t.Error("QD mode names wrong")
	}
}

func TestIntraZoneQueryIsFree(t *testing.T) {
	net := lineNet(20)
	bc := newBC(t, net, 3, QD2)
	res := bc.Query(bc.net.Recorder(), 5, 7)
	if !res.Found || res.PathHops != 2 || res.Messages != 0 {
		t.Errorf("intra-zone query = %+v", res)
	}
}

func TestBordercastFindsFarTargetOnLine(t *testing.T) {
	net := lineNet(40)
	bc := newBC(t, net, 3, QD2)
	res := bc.Query(bc.net.Recorder(), 0, 30)
	if !res.Found {
		t.Fatalf("bordercast missed target: %+v", res)
	}
	if res.PathHops < 30 {
		t.Errorf("PathHops = %d, cannot beat the 30-hop shortest path", res.PathHops)
	}
	if res.Rounds < 2 {
		t.Errorf("a 30-hop target needs multiple bordercast waves, got %d", res.Rounds)
	}
	if res.Messages == 0 {
		t.Error("no messages counted")
	}
}

func TestBordercastSuccessRateOnRandomNets(t *testing.T) {
	// The paper reports bordercasting at 100% query success. Verify over
	// the largest component of several random networks.
	for _, qd := range []QDMode{QDNone, QD1, QD2} {
		total, found := 0, 0
		for seed := uint64(1); seed <= 3; seed++ {
			net := randomNet(seed, 300)
			bc := newBC(t, net, 2, qd)
			comp := net.Graph().LargestComponent()
			rng := xrand.New(seed * 7)
			for q := 0; q < 30; q++ {
				src := comp[rng.Intn(len(comp))]
				dst := comp[rng.Intn(len(comp))]
				total++
				if bc.Query(bc.net.Recorder(), src, dst).Found {
					found++
				}
			}
		}
		rate := float64(found) / float64(total)
		if rate < 0.99 {
			t.Errorf("%v: success rate %.2f below 0.99", qd, rate)
		}
	}
}

func TestQueryDetectionReducesTraffic(t *testing.T) {
	// QD1 <= none, QD2 <= QD1 in aggregate (the whole point of QD).
	traffic := map[QDMode]int64{}
	for _, qd := range []QDMode{QDNone, QD1, QD2} {
		var sum int64
		for seed := uint64(1); seed <= 3; seed++ {
			net := randomNet(seed, 300)
			bc := newBC(t, net, 2, qd)
			comp := net.Graph().LargestComponent()
			rng := xrand.New(seed * 13)
			for q := 0; q < 20; q++ {
				src := comp[rng.Intn(len(comp))]
				dst := comp[rng.Intn(len(comp))]
				sum += bc.Query(bc.net.Recorder(), src, dst).Messages
			}
		}
		traffic[qd] = sum
	}
	if traffic[QD1] > traffic[QDNone] {
		t.Errorf("QD1 (%d) costlier than no QD (%d)", traffic[QD1], traffic[QDNone])
	}
	if traffic[QD2] > traffic[QD1] {
		t.Errorf("QD2 (%d) costlier than QD1 (%d)", traffic[QD2], traffic[QD1])
	}
}

func TestBordercastCheaperThanFlooding(t *testing.T) {
	// Fig. 15's middle bar: bordercasting sits between flooding and CARD.
	var bcSum, flSum int64
	var scan topology.BFSResult
	for seed := uint64(1); seed <= 3; seed++ {
		netA := randomNet(seed, 400)
		bc := newBC(t, netA, 3, QD2)
		netB := randomNet(seed, 400)
		comp := netA.Graph().LargestComponent()
		rng := xrand.New(seed * 17)
		for q := 0; q < 15; q++ {
			src := comp[rng.Intn(len(comp))]
			dst := comp[rng.Intn(len(comp))]
			bcSum += bc.Query(bc.net.Recorder(), src, dst).Messages
			scan.Run(netB.Graph(), src, -1)
			flSum += flood.Search(netB.Recorder(), &scan, dst, []int{-1}, true).Messages
		}
	}
	if bcSum >= flSum {
		t.Errorf("bordercast traffic (%d) not below flooding (%d)", bcSum, flSum)
	}
}

func TestUnreachableTargetTerminates(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0},
		{X: 500, Y: 0}, {X: 510, Y: 0},
	}
	a := geom.Rect{W: 600, H: 10}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	bc := newBC(t, net, 1, QD1)
	res := bc.Query(bc.net.Recorder(), 0, 4)
	if res.Found {
		t.Fatal("found target in another component")
	}
	if res.PathHops != -1 {
		t.Errorf("PathHops = %d, want -1", res.PathHops)
	}
}

func TestRepliesCounted(t *testing.T) {
	// The success reply unicasts back along the found path: PathHops
	// reply messages on top of the query traffic.
	net := lineNet(30)
	bc := newBC(t, net, 3, QD1)
	res := bc.Query(bc.net.Recorder(), 0, 20)
	if !res.Found {
		t.Fatalf("query = %+v, want found", res)
	}
	if got := net.Totals().Sum(manet.CatReply); got != int64(res.PathHops) {
		t.Errorf("reply messages = %d, want PathHops %d", got, res.PathHops)
	}
	if res.Messages <= int64(res.PathHops) {
		t.Errorf("Messages = %d, want query traffic beyond the %d reply hops", res.Messages, res.PathHops)
	}
}

func TestSelfQuery(t *testing.T) {
	net := lineNet(5)
	bc := newBC(t, net, 2, QD2)
	res := bc.Query(bc.net.Recorder(), 3, 3)
	if !res.Found || res.PathHops != 0 || res.Messages != 0 {
		t.Errorf("self query = %+v", res)
	}
}
