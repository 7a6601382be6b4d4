package scheme

import (
	"testing"

	"card/internal/card"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/resource"
	"card/internal/topology"
	"card/internal/xrand"
)

// lineEnv builds a hand-checkable topology: a 4-node line 0—1—2—3 (60 m
// spacing, 70 m range) plus an isolated node 4, with a zone-2 CARD
// protocol providing the bordercast substrate.
func lineEnv(t *testing.T) Env {
	t.Helper()
	a := geom.Rect{W: 1100, H: 50}
	pts := []geom.Point{
		{X: 0, Y: 10}, {X: 60, Y: 10}, {X: 120, Y: 10}, {X: 180, Y: 10},
		{X: 1000, Y: 10}, // isolated
	}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 70}}, xrand.New(2))
	cfg := card.Config{R: 2, MaxContactDist: 8, NoC: 2, Depth: 2}
	nb := neighborhood.NewOracle(net, cfg.R)
	prot, err := card.New(net, nb, cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	prot.SelectAll(0)
	return Env{Net: net, Prot: prot, Dir: resource.NewDirectory(net.N())}
}

// TestBordercastAccountingHandComputed pins the bordercast scheme arm's
// recorder totals on the line. Node 0 queries the holder at node 3, one
// hop outside its zone (ρ = 2). The first bordercast relay 0→1 lets node
// 1's zone table answer — dist 1 + zone distance 2 = a 3-hop route —
// so the cascade charges exactly one query transmission plus the 3-hop
// reply: CatQuery 1, CatReply 3, 4 messages total.
func TestBordercastAccountingHandComputed(t *testing.T) {
	env := lineEnv(t)
	env.Dir.Place(9, 3)
	s, err := New("bordercast", env)
	if err != nil {
		t.Fatal(err)
	}
	s.Setup()
	w := s.Worker()
	before := env.Net.Totals() // contact selection already charged traffic
	r := w.Discover(0, 9)
	if !r.Found || r.Holder != 3 || r.PathHops != 3 || r.Messages != 4 {
		t.Fatalf("result = %+v, want holder 3, 3 hops, 4 messages", r)
	}
	w.Flush()
	totals := env.Net.Totals().DiffSince(before)
	if q := totals.Get(manet.CatQuery); q != 1 {
		t.Errorf("CatQuery = %d, want 1 (single relay 0→1)", q)
	}
	if p := totals.Get(manet.CatReply); p != 3 {
		t.Errorf("CatReply = %d, want 3 (reply along the 3-hop route)", p)
	}
	if got := totals.Total(); got != r.Messages {
		t.Errorf("recorder total %d != result messages %d", got, r.Messages)
	}
}

// TestBordercastDeadSearchHandComputed pins the dead cascade: the only
// holder is the isolated node, so the query bordercasts until coverage
// runs out. On the line that is the relays 0→1 and 1→2 (round one reaches
// peripheral node 2; round two finds node 2's periphery already covered):
// CatQuery 2, no reply.
func TestBordercastDeadSearchHandComputed(t *testing.T) {
	env := lineEnv(t)
	env.Dir.Place(9, 4)
	s, err := New("bordercast", env)
	if err != nil {
		t.Fatal(err)
	}
	s.Setup()
	w := s.Worker()
	before := env.Net.Totals()
	r := w.Discover(0, 9)
	if r.Found || r.PathHops != -1 || r.Messages != 2 {
		t.Fatalf("result = %+v, want failed search costing 2 messages", r)
	}
	w.Flush()
	totals := env.Net.Totals().DiffSince(before)
	if q := totals.Get(manet.CatQuery); q != 2 {
		t.Errorf("CatQuery = %d, want 2", q)
	}
	if p := totals.Get(manet.CatReply); p != 0 {
		t.Errorf("CatReply = %d, want 0", p)
	}
}
