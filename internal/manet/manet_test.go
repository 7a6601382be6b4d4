package manet

import (
	"testing"

	"card/internal/geom"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

var area = geom.Rect{W: 500, H: 500}

func staticNet(t *testing.T, pts []geom.Point, txRange float64) *Network {
	t.Helper()
	return NewNetwork(mobility.NewStatic(pts, area), Config{Link: topology.LinkModel{Uniform: txRange}}, xrand.New(1))
}

func TestCountersBasics(t *testing.T) {
	var k Counters
	k.Record(CatCSQ, 3)
	k.Record(CatBacktrack, 2)
	k.Record(CatCSQ, 1)
	if got := k.Get(CatCSQ); got != 4 {
		t.Errorf("Get(CSQ) = %d", got)
	}
	if got := k.Sum(CatCSQ, CatBacktrack); got != 6 {
		t.Errorf("Sum = %d", got)
	}
	if got := k.Total(); got != 6 {
		t.Errorf("Total = %d", got)
	}
	snap := k
	k.Record(CatQuery, 5)
	d := k.DiffSince(snap)
	if d.Get(CatQuery) != 5 || d.Get(CatCSQ) != 0 {
		t.Errorf("DiffSince = %v", d.String())
	}
	k.Reset()
	if k.Total() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestCountersString(t *testing.T) {
	var k Counters
	if k.String() != "(none)" {
		t.Errorf("empty String = %q", k.String())
	}
	k.Record(CatValidate, 2)
	if k.String() != "validate=2" {
		t.Errorf("String = %q", k.String())
	}
}

func TestCategoryString(t *testing.T) {
	if CatDSDV.String() != "dsdv" || CatReply.String() != "reply" {
		t.Error("category names wrong")
	}
	if Category(99).String() != "Category(99)" {
		t.Error("out-of-range category name wrong")
	}
}

func TestNetworkSnapshot(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 100, Y: 100}}
	n := staticNet(t, pts, 15)
	if n.N() != 3 {
		t.Fatalf("N = %d", n.N())
	}
	if !n.Adjacent(0, 1) || n.Adjacent(0, 2) {
		t.Error("adjacency wrong")
	}
	if got := n.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if n.Graph().N() != 3 {
		t.Error("Graph() inconsistent")
	}
	if n.TxRange() != 15 {
		t.Error("TxRange wrong")
	}
}

func TestRefreshAdvancesEpoch(t *testing.T) {
	n := staticNet(t, []geom.Point{{X: 0, Y: 0}}, 10)
	e0 := n.Epoch()
	n.RefreshAt(1)
	if n.Epoch() != e0+1 {
		t.Errorf("epoch did not advance: %d -> %d", e0, n.Epoch())
	}
	if n.Now() != 1 {
		t.Errorf("Now = %v", n.Now())
	}
}

func TestRefreshBackwardsPanics(t *testing.T) {
	n := staticNet(t, []geom.Point{{X: 0, Y: 0}}, 10)
	n.RefreshAt(5)
	defer func() {
		if recover() == nil {
			t.Error("backwards refresh did not panic")
		}
	}()
	n.RefreshAt(4)
}

func TestBadRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("txRange=0 did not panic")
		}
	}()
	staticNet(t, nil, 0)
}

func TestMobilityChangesTopology(t *testing.T) {
	// Two nodes walking: with RWP over a large area they will eventually be
	// out of range of each other even if they start close. Use a model where
	// we control it: random walk with high speed and check the link set
	// actually changes across refreshes at least once.
	rng := xrand.New(77)
	m, err := mobility.NewRandomWaypoint(30, area, mobility.RWPConfig{MinSpeed: 1, MaxSpeed: 19}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNetwork(m, Config{Link: topology.LinkModel{Uniform: 60}}, xrand.New(2))
	prev := n.Graph().Links()
	changed := false
	for i := 1; i <= 40; i++ {
		n.RefreshAt(float64(i))
		if n.Graph().Links() != prev {
			changed = true
			break
		}
		prev = n.Graph().Links()
	}
	if !changed {
		t.Error("40 s of RWP mobility never changed the link count")
	}
}

// TestSendAccounting pins the shared tally: charges through Recorder()
// land in Totals, and Totals is a copy the caller may keep.
func TestSendAccounting(t *testing.T) {
	n := staticNet(t, []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}}, 15)
	if n.Recorder() != n.Recorder() {
		t.Fatal("Recorder() is not one tally")
	}
	n.Recorder().Record(CatQuery, 1)
	n.Recorder().Record(CatQuery, 3)
	var local Counters
	local.Record(CatReply, 2)
	local.AddTo(n.Recorder())
	snap := n.Totals()
	if got := snap.Get(CatQuery); got != 4 {
		t.Errorf("query count = %d", got)
	}
	if got := snap.Get(CatReply); got != 2 {
		t.Errorf("reply count = %d", got)
	}
	snap.Record(CatQuery, 10)
	if got := n.Totals().Get(CatQuery); got != 4 {
		t.Errorf("writing to a Totals copy reached the network: query count = %d", got)
	}
}

func TestWalkPathComplete(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 30, Y: 0}}
	n := staticNet(t, pts, 15)
	ok, holder := walkPath(n, CatValidate, []NodeID{0, 1, 2, 3})
	if !ok || holder != 3 {
		t.Errorf("walkPath = %v, %d", ok, holder)
	}
	if got := n.Totals().Get(CatValidate); got != 3 {
		t.Errorf("validate hops = %d, want 3", got)
	}
}

func TestWalkPathBroken(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 200, Y: 0}, {X: 210, Y: 0}}
	n := staticNet(t, pts, 15)
	ok, holder := walkPath(n, CatValidate, []NodeID{0, 1, 2, 3})
	if ok {
		t.Error("broken path reported ok")
	}
	if holder != 1 {
		t.Errorf("holder = %d, want 1 (packet stuck at node index 1)", holder)
	}
	if got := n.Totals().Get(CatValidate); got != 1 {
		t.Errorf("validate hops = %d, want 1 (only first hop succeeded)", got)
	}
}

func TestWalkPathSingleNode(t *testing.T) {
	n := staticNet(t, []geom.Point{{X: 0, Y: 0}}, 15)
	ok, holder := walkPath(n, CatQuery, []NodeID{0})
	if !ok || holder != 0 {
		t.Errorf("trivial walk = %v, %d", ok, holder)
	}
	if n.Totals().Total() != 0 {
		t.Error("trivial walk counted messages")
	}
}

func TestNodeIDAliasesTopology(t *testing.T) {
	var a NodeID = 3
	var b topology.NodeID = 3
	if a != b {
		t.Error("NodeID alias broken")
	}
}
