package card

import (
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/topology"
	"card/internal/xrand"
)

// testArea matches the paper's workhorse scenario (Table 1, #5).
var testArea = geom.Rect{W: 710, H: 710}

// staticNet builds a uniform static network.
func staticNet(seed uint64, n int, txRange float64) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, testArea, rng)
	return manet.NewNetwork(mobility.NewStatic(pts, testArea), manet.Config{Link: topology.LinkModel{Uniform: txRange}}, xrand.New(seed+1000))
}

// mobileNet builds an RWP network.
func mobileNet(t *testing.T, seed uint64, n int, txRange float64) *manet.Network {
	t.Helper()
	m, err := mobility.NewRandomWaypoint(n, testArea, mobility.RWPConfig{MinSpeed: 1, MaxSpeed: 19}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return manet.NewNetwork(m, manet.Config{Link: topology.LinkModel{Uniform: txRange}}, xrand.New(seed+1000))
}

// newProtocol wires a protocol over net with an oracle neighborhood.
func newProtocol(t *testing.T, net *manet.Network, cfg Config, seed uint64) *Protocol {
	t.Helper()
	nb := neighborhood.NewOracle(net, cfg.R)
	p, err := New(net, nb, cfg, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// selectNode runs one selection round for u alone on the protocol's own
// Maintainer, as one shard of the engine's fan-out does, and flushes it.
func selectNode(p *Protocol, u NodeID, now float64) int {
	m := serialMaintainer(p)
	added := m.SelectNode(u, now, p.NextRound())
	m.Flush()
	return added
}

// maintainNode is selectNode for one maintenance round.
func maintainNode(p *Protocol, u NodeID, now float64) {
	m := serialMaintainer(p)
	m.MaintainNode(u, now, p.NextRound())
	m.Flush()
}

// inject appends c to u's table as a selection round would and records it
// in the owners-of index. Every test that plants a contact goes through it,
// so the index stays exact for the expiry under test.
func inject(p *Protocol, u NodeID, c Contact) {
	p.tables[u].add(c)
	p.hold(u, c.ID)
}

// dropAt removes u's i-th contact and releases it from the index.
func dropAt(p *Protocol, u NodeID, i int) {
	p.release(u, p.tables[u].at(i).ID)
	p.tables[u].removeAt(i)
}

// testProviders are the two substrates selection runs on: every view
// resident, and the capped cache the 100k/1M rungs use (a quarter of the
// field resident, the metro-rwp-1m ratio).
var testProviders = []struct {
	name string
	new  func(net *manet.Network, r int) neighborhood.Provider
}{
	{"oracle", func(net *manet.Network, r int) neighborhood.Provider { return neighborhood.NewOracle(net, r) }},
	{"viewcache", func(net *manet.Network, r int) neighborhood.Provider {
		return neighborhood.NewViewCache(net, r, net.N()/4)
	}},
}

// lineNet builds n nodes 10 m apart on a line with 15 m range (path graph).
func lineNet(n int) *manet.Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	area := geom.Rect{W: float64(n) * 10, H: 10}
	return manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
}

// checkPathValid asserts that a source route is hop-by-hop adjacent on the
// current snapshot.
func checkPathValid(t *testing.T, net *manet.Network, path []NodeID) {
	t.Helper()
	for i := 0; i+1 < len(path); i++ {
		if !net.Adjacent(path[i], path[i+1]) {
			t.Fatalf("path %v: hop %d->%d not adjacent", path, path[i], path[i+1])
		}
	}
}

// scripted is a mobility model whose positions tests mutate directly
// (teleporting nodes to break specific links).
type scripted struct {
	area geom.Rect
	pos  []geom.Point
}

func (s *scripted) N() int                                  { return len(s.pos) }
func (s *scripted) Area() geom.Rect                         { return s.area }
func (s *scripted) PositionsAt(_ float64, dst []geom.Point) { copy(dst, s.pos) }

// scriptedModels lets teleport find the model behind a network.
var scriptedModels = map[*manet.Network]*scripted{}

// customNet builds a static-but-mutable network from explicit coordinates
// (15 m radio range).
func customNet(t *testing.T, coords [][2]float64) *manet.Network {
	t.Helper()
	s := &scripted{area: geom.Rect{W: 1000, H: 1000}}
	for _, c := range coords {
		s.pos = append(s.pos, geom.Point{X: c[0], Y: c[1]})
	}
	net := manet.NewNetwork(s, manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(99))
	scriptedModels[net] = s
	return net
}

// teleport moves one node and refreshes the snapshot.
func teleport(net *manet.Network, id NodeID, x, y float64) {
	s := scriptedModels[net]
	s.pos[id] = geom.Point{X: x, Y: y}
	net.RefreshAt(net.Now() + 0.001)
}
