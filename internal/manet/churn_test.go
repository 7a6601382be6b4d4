package manet

import (
	"testing"

	"card/internal/geom"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

func testChurn(t *testing.T, n int, seed uint64) *Churn {
	t.Helper()
	c, err := NewChurn(n, ChurnConfig{MeanUp: 10, MeanDown: 4}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChurnConfigValidation(t *testing.T) {
	for _, cfg := range []ChurnConfig{{MeanUp: 0, MeanDown: 1}, {MeanUp: 1, MeanDown: -2}} {
		if _, err := NewChurn(5, cfg, xrand.New(1)); err == nil {
			t.Errorf("NewChurn accepted %+v", cfg)
		}
	}
}

// TestChurnDeterministicPerSeed pins the schedule contract: equal seeds
// give identical flip sequences under any monotone sampling, and sampling
// one node never perturbs another (per-node derived streams).
func TestChurnDeterministicPerSeed(t *testing.T) {
	const n = 40
	a := testChurn(t, n, 5)
	b := testChurn(t, n, 5)
	times := []float64{0, 0.5, 3, 3, 7.25, 20, 100, 400}
	for _, tm := range times {
		for i := 0; i < n; i++ {
			if a.UpAt(i, tm) != b.UpAt(i, tm) {
				t.Fatalf("node %d diverges at t=%v under equal seeds", i, tm)
			}
		}
	}
	// Independence: a third schedule sampled only at the final time must
	// agree with one sampled densely.
	c := testChurn(t, n, 5)
	last := times[len(times)-1]
	for i := 0; i < n; i++ {
		if got, want := c.UpAt(i, last), a.UpAt(i, last); got != want {
			t.Fatalf("node %d: sparse sampling %v != dense sampling %v", i, got, want)
		}
	}
}

func TestChurnActuallyFlips(t *testing.T) {
	const n = 50
	c := testChurn(t, n, 9)
	everDown := 0
	for i := 0; i < n; i++ {
		wasDown := false
		for tm := 0.0; tm <= 100; tm += 1 {
			if !c.UpAt(i, tm) {
				wasDown = true
			}
		}
		if wasDown {
			everDown++
		}
	}
	// Mean up-time 10 s over 100 s: virtually every node should go down.
	if everDown < n*3/4 {
		t.Errorf("only %d/%d nodes ever went down over 100 s", everDown, n)
	}
}

// TestNetworkChurnIntegration checks the substrate contract: down nodes
// are link-free in the snapshot, flip lists match state transitions, and
// the churned graph is the one a fresh build of the same positions and
// mask gives.
func TestNetworkChurnIntegration(t *testing.T) {
	const n = 120
	area := geom.Rect{W: 500, H: 500}
	rng := xrand.New(77)
	m, err := mobility.NewRandomWaypoint(n, area, mobility.DefaultRWP(), rng.Derive(0))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewChurn(n, ChurnConfig{MeanUp: 6, MeanDown: 3}, rng.Derive(3))
	if err != nil {
		t.Fatal(err)
	}
	inc := NewNetwork(m, Config{Link: topology.LinkModel{Uniform: 60}, Churn: churn}, rng.Derive(1))

	// Snapshot the post-construction state: the t=0 build may already have
	// flipped nodes whose first up-interval rounded to zero.
	prevDown := make([]bool, n)
	for u := 0; u < n; u++ {
		prevDown[u] = inc.Down(topology.NodeID(u))
	}
	for _, tm := range []float64{0.5, 1, 2.5, 4, 8, 16, 30} {
		inc.RefreshAt(tm)

		for u := 0; u < n; u++ {
			if inc.Up(topology.NodeID(u)) != churn.UpAt(u, tm) {
				t.Fatalf("t=%v: up(%d) disagrees with the schedule", tm, u)
			}
			if inc.Down(topology.NodeID(u)) && inc.Graph().Degree(topology.NodeID(u)) != 0 {
				t.Fatalf("t=%v: down node %d has links", tm, u)
			}
		}
		snapshotMatchesFreshBuild(t, inc)
		// Flip lists must match the observed state transitions.
		flips := map[topology.NodeID]bool{}
		for _, v := range inc.ChurnedDown() {
			flips[v] = true
			if inc.Up(v) {
				t.Fatalf("t=%v: ChurnedDown lists up node %d", tm, v)
			}
		}
		for _, v := range inc.ChurnedUp() {
			flips[v] = true
			if inc.Down(v) {
				t.Fatalf("t=%v: ChurnedUp lists down node %d", tm, v)
			}
		}
		for u := 0; u < n; u++ {
			nowDown := inc.Down(topology.NodeID(u))
			if nowDown != prevDown[u] && !flips[topology.NodeID(u)] {
				t.Fatalf("t=%v: node %d flipped without appearing in a flip list", tm, u)
			}
			if nowDown == prevDown[u] && flips[topology.NodeID(u)] {
				t.Fatalf("t=%v: node %d in a flip list without flipping", tm, u)
			}
			prevDown[u] = nowDown
		}
		if inc.UpCount()+len(downNodes(inc)) != n {
			t.Fatalf("t=%v: UpCount inconsistent", tm)
		}
	}
}

func downNodes(n *Network) []topology.NodeID {
	var out []topology.NodeID
	for u := 0; u < n.N(); u++ {
		if n.Down(topology.NodeID(u)) {
			out = append(out, topology.NodeID(u))
		}
	}
	return out
}

func TestNetworkWithoutChurnIsAllUp(t *testing.T) {
	area := geom.Rect{W: 100, H: 100}
	pts := topology.UniformPositions(10, area, xrand.New(1))
	net := NewNetwork(mobility.NewStatic(pts, area), Config{Link: topology.LinkModel{Uniform: 30}}, xrand.New(2))
	if net.HasChurn() {
		t.Error("churn-free network reports churn")
	}
	if net.UpCount() != 10 || net.Down(3) || !net.Up(3) {
		t.Error("churn-free network has down nodes")
	}
	if len(net.ChurnedDown()) != 0 || len(net.ChurnedUp()) != 0 {
		t.Error("churn-free network has flip lists")
	}
}

func TestNewWithChurnSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on churn/model size mismatch")
		}
	}()
	area := geom.Rect{W: 100, H: 100}
	pts := topology.UniformPositions(10, area, xrand.New(1))
	churn, _ := NewChurn(7, ChurnConfig{MeanUp: 5, MeanDown: 5}, xrand.New(3))
	NewNetwork(mobility.NewStatic(pts, area), Config{Link: topology.LinkModel{Uniform: 30}, Churn: churn}, xrand.New(2))
}
