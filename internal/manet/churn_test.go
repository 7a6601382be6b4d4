package manet

import (
	"slices"
	"strings"
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
	for _, cfg := range []ChurnConfig{
		{MeanUp: 0, MeanDown: 1}, {MeanUp: 1, MeanDown: -2},
		{MeanUp: 1e-9, MeanDown: 1}, {MeanUp: 1, MeanDown: 0.999e-3},
	} {
		_, err := NewChurn(5, cfg, xrand.New(1))
		if err == nil || !strings.Contains(err.Error(), "floor") {
			t.Errorf("NewChurn(%+v) = %v, want the floor error", cfg, err)
		}
	}
	if _, err := NewChurn(5, ChurnConfig{MeanUp: 1e-3, MeanDown: 1e-3}, xrand.New(1)); err != nil {
		t.Errorf("NewChurn rejected means at the floor: %v", err)
	}
}

// scanChurn is the per-node scan the wake queue replaced, kept as its
// oracle: the same derived stream and renewal loop per node, each node
// holding its own next flip time and sampled one at a time.
type scanChurn struct {
	cfg   ChurnConfig
	rngs  []*xrand.Rand
	up    []bool
	until []float64
	count []int // flips so far, per node
}

func newScanChurn(n int, cfg ChurnConfig, rng *xrand.Rand) *scanChurn {
	c := &scanChurn{cfg: cfg, rngs: make([]*xrand.Rand, n), up: make([]bool, n), until: make([]float64, n), count: make([]int, n)}
	for i := range c.rngs {
		c.rngs[i] = rng.Derive(uint64(i))
		c.up[i] = true
		c.until[i] = cfg.MeanUp * c.rngs[i].ExpFloat64()
	}
	return c
}

// upAt advances node i to t (non-decreasing per node) and reports its state.
func (c *scanChurn) upAt(i int, t float64) bool {
	for t >= c.until[i] {
		c.up[i] = !c.up[i]
		c.count[i]++
		if c.up[i] {
			c.until[i] += c.cfg.MeanUp * c.rngs[i].ExpFloat64()
		} else {
			c.until[i] += c.cfg.MeanDown * c.rngs[i].ExpFloat64()
		}
	}
	return c.up[i]
}

// flips samples every node at t, in id order, and lists the state changes.
func (c *scanChurn) flips(t float64) (down, up []NodeID) {
	for i := range c.up {
		was := c.up[i]
		switch now := c.upAt(i, t); {
		case now == was:
		case now:
			up = append(up, NodeID(i))
		default:
			down = append(down, NodeID(i))
		}
	}
	return down, up
}

// TestChurnQueueMatchesScan drives the wake queue and the scan oracle
// through the same refresh times — irregular gaps, repeated times, and
// gaps spanning many flips of one node — and requires equal flip lists
// and equal per-node states after every call.
func TestChurnQueueMatchesScan(t *testing.T) {
	const n = 300
	for _, cfg := range []ChurnConfig{{MeanUp: 10, MeanDown: 4}, {MeanUp: 0.05, MeanDown: 0.02}, {MeanUp: 3, MeanDown: 3}} {
		q, err := NewChurn(n, cfg, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		ref := newScanChurn(n, cfg, xrand.New(11))
		rng := xrand.New(12)
		tm := 0.0
		var down, up []NodeID
		for step := 0; step < 400; step++ {
			switch step % 4 {
			case 0: // repeat the last time
			case 1:
				tm += rng.Range(0, 0.1)
			case 2:
				tm += rng.ExpFloat64()
			case 3:
				tm += 10 * cfg.MeanUp * rng.Float64() // many flips per node
			}
			down, up = q.flips(tm, down[:0], up[:0])
			wantDown, wantUp := ref.flips(tm)
			if !slices.Equal(down, wantDown) || !slices.Equal(up, wantUp) {
				t.Fatalf("%+v t=%v: flips down %v up %v, scan %v %v", cfg, tm, down, up, wantDown, wantUp)
			}
			for i := range q.down {
				if q.down[i] == ref.up[i] {
					t.Fatalf("%+v t=%v: node %d down=%v, scan up=%v", cfg, tm, i, q.down[i], ref.up[i])
				}
			}
		}
		if len(q.queue) != n {
			t.Fatalf("%+v: queue holds %d of %d nodes", cfg, len(q.queue), n)
		}
	}
}

// TestChurnDeterministicPerSeed pins the schedule contract: equal seeds
// give identical flip sequences under any monotone sampling, and how
// often the schedule is sampled never changes any node's state (per-node
// derived streams).
func TestChurnDeterministicPerSeed(t *testing.T) {
	const n = 40
	a := testChurn(t, n, 5)
	b := testChurn(t, n, 5)
	times := []float64{0, 0.5, 3, 3, 7.25, 20, 100, 400}
	for _, tm := range times {
		ad, au := a.flips(tm, nil, nil)
		bd, bu := b.flips(tm, nil, nil)
		if !slices.Equal(ad, bd) || !slices.Equal(au, bu) {
			t.Fatalf("flips diverge at t=%v under equal seeds", tm)
		}
	}
	// Independence: a third schedule sampled only at the final time must
	// agree with one sampled densely.
	c := testChurn(t, n, 5)
	c.flips(times[len(times)-1], nil, nil)
	for i := 0; i < n; i++ {
		if got, want := c.down[i], a.down[i]; got != want {
			t.Fatalf("node %d: sparse sampling %v != dense sampling %v", i, got, want)
		}
	}
}

func TestChurnActuallyFlips(t *testing.T) {
	const n = 50
	c := testChurn(t, n, 9)
	everDown := map[NodeID]bool{}
	for tm := 0.0; tm <= 100; tm += 1 {
		down, _ := c.flips(tm, nil, nil)
		for _, v := range down {
			everDown[v] = true
		}
	}
	// Mean up-time 10 s over 100 s: virtually every node should go down.
	if len(everDown) < n*3/4 {
		t.Errorf("only %d/%d nodes ever went down over 100 s", len(everDown), n)
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
	m, err := mobility.NewRandomWaypoint(n, area, mobility.RWPConfig{MinSpeed: 1, MaxSpeed: 19}, rng.Derive(0))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewChurn(n, ChurnConfig{MeanUp: 6, MeanDown: 3}, rng.Derive(3))
	if err != nil {
		t.Fatal(err)
	}
	ref := newScanChurn(n, ChurnConfig{MeanUp: 6, MeanDown: 3}, rng.Derive(3))
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
			if !inc.Down(topology.NodeID(u)) != ref.upAt(u, tm) {
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
			if !inc.Down(v) {
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

// TestChurnBlinkInsideOneRefresh pins the degenerate flip that neither
// flip list may show: a node that goes down and comes back between two
// refreshes. Down-times average 1 ms against 0.5 s refreshes, so nearly
// every down phase is such a blink; the network must report those nodes
// up, list them nowhere, and keep them out of the builder's hand-over —
// the snapshot still equals a fresh build — while the rare down phase a
// refresh does catch is listed both ways, once each.
func TestChurnBlinkInsideOneRefresh(t *testing.T) {
	const n = 200
	cfg := ChurnConfig{MeanUp: 5, MeanDown: 1e-3}
	area := geom.Rect{W: 500, H: 500}
	churn, err := NewChurn(n, cfg, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := newScanChurn(n, cfg, xrand.New(4))
	net := NewNetwork(mobility.NewStatic(topology.UniformPositions(n, area, xrand.New(5)), area),
		Config{Link: topology.LinkModel{Uniform: 60}, Churn: churn}, xrand.New(6))
	blinks, caught, back := 0, 0, 0
	for tm := 0.5; tm <= 30; tm += 0.5 {
		before := slices.Clone(ref.count)
		net.RefreshAt(tm)
		listed := append(slices.Clone(net.ChurnedDown()), net.ChurnedUp()...)
		caught, back = caught+len(net.ChurnedDown()), back+len(net.ChurnedUp())
		for u := 0; u < n; u++ {
			id := topology.NodeID(u)
			if !net.Down(id) != ref.upAt(u, tm) {
				t.Fatalf("t=%v: node %d up=%v disagrees with the scan", tm, u, !net.Down(id))
			}
			if k := ref.count[u] - before[u]; k > 0 && k%2 == 0 {
				blinks++
				if !!net.Down(id) || slices.Contains(listed, id) {
					t.Fatalf("t=%v: node %d blinked (%d flips) but is down or listed", tm, u, k)
				}
			}
		}
		if net.UpCount()+len(downNodes(net)) != n {
			t.Fatalf("t=%v: UpCount %d with %d down", tm, net.UpCount(), len(downNodes(net)))
		}
		snapshotMatchesFreshBuild(t, net)
	}
	if blinks != 1174 || caught != 2 || back != 2 {
		t.Fatalf("%d blinks, %d caught down, %d back up; pinned 1174, 2 and 2", blinks, caught, back)
	}
}

// TestUpCountMatchesScan pins the O(1) up counter against a scan of Up
// after each of 250 churned refreshes.
func TestUpCountMatchesScan(t *testing.T) {
	const n = 150
	area := geom.Rect{W: 400, H: 400}
	m, err := mobility.NewRandomWaypoint(n, area, mobility.RWPConfig{MinSpeed: 1, MaxSpeed: 19}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := NewChurn(n, ChurnConfig{MeanUp: 3, MeanDown: 2}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(m, Config{Link: topology.LinkModel{Uniform: 50}, Churn: churn}, xrand.New(3))
	lo, hi := n, 0
	for k := 1; k <= 250; k++ {
		net.RefreshAt(0.3 * float64(k))
		up := 0
		for u := 0; u < n; u++ {
			if !net.Down(topology.NodeID(u)) {
				up++
			}
		}
		if net.UpCount() != up {
			t.Fatalf("refresh %d: UpCount %d, scan %d", k, net.UpCount(), up)
		}
		lo, hi = min(lo, up), max(hi, up)
	}
	if lo == hi {
		t.Fatalf("up count never moved (%d)", lo)
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
	if net.UpCount() != 10 || net.Down(3) {
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
