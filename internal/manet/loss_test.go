package manet

import (
	"math"
	"testing"

	"card/internal/geom"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

// lossyNet builds a static chain of n nodes 40 m apart (well inside the
// 50 m range) with the given loss config.
func lossyNet(t *testing.T, n int, loss LossConfig) *Network {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 40, Y: 10}
	}
	a := geom.Rect{W: float64(n) * 40, H: 100}
	return NewNetwork(mobility.NewStatic(pts, a), Config{
		Link: topology.LinkModel{Uniform: 50},
		Loss: loss,
	}, xrand.New(1))
}

func TestTryHopLossless(t *testing.T) {
	net := lossyNet(t, 4, LossConfig{})
	if att, ok := net.TryHop(0, 1); att != 1 || !ok {
		t.Fatalf("lossless adjacent hop: att=%d ok=%v, want 1 true", att, ok)
	}
	if att, ok := net.TryHop(0, 3); att != 0 || ok {
		t.Fatalf("lossless non-adjacent hop: att=%d ok=%v, want 0 false", att, ok)
	}
}

func TestTryHopAsymmetricAttemptsNothing(t *testing.T) {
	// Node 0 has a 100 m radio, node 1 a 30 m one, 50 m apart: 0→1 exists
	// but 1 cannot ack, so a protocol-level hop must not even transmit.
	pts := []geom.Point{{X: 10, Y: 10}, {X: 60, Y: 10}}
	a := geom.Rect{W: 200, H: 100}
	net := NewNetwork(mobility.NewStatic(pts, a), Config{
		Link: topology.LinkModel{Uniform: 100, Ranges: []float64{100, 30}},
	}, xrand.New(1))
	if !net.Adjacent(0, 1) || net.Adjacent(1, 0) {
		t.Fatal("fixture not asymmetric")
	}
	if att, ok := net.TryHop(0, 1); att != 0 || ok {
		t.Fatalf("asymmetric hop: att=%d ok=%v, want 0 false", att, ok)
	}
	if att, ok := net.TryHop(1, 0); att != 0 || ok {
		t.Fatalf("reverse asymmetric hop: att=%d ok=%v, want 0 false", att, ok)
	}
}

// TestTryHopRetryBudget pins the attempt envelope: 1 <= attempts <=
// retries+1, and an undelivered hop always exhausted the full budget.
func TestTryHopRetryBudget(t *testing.T) {
	const retries = 2
	net := lossyNet(t, 40, LossConfig{Rate: 0.5, Retries: retries})
	delivered, dropped := 0, 0
	for u := 0; u+1 < net.N(); u++ {
		att, ok := net.TryHop(NodeID(u), NodeID(u+1))
		if att < 1 || att > retries+1 {
			t.Fatalf("hop %d: %d attempts outside [1, %d]", u, att, retries+1)
		}
		if !ok && att != retries+1 {
			t.Fatalf("hop %d: dropped after %d attempts with budget left", u, att)
		}
		if ok {
			delivered++
		} else {
			dropped++
		}
	}
	// At rate 0.5 with 3 tries, ~87.5% deliver: both outcomes must appear
	// over 39 edges or the fixture isn't exercising the process.
	if delivered == 0 || dropped == 0 {
		t.Fatalf("degenerate loss process: %d delivered, %d dropped", delivered, dropped)
	}
}

// TestTryHopFrozenWithinEpoch pins the link-fade model: an edge's outcome
// is a constant of the epoch (repeat calls agree), and a refresh re-rolls
// the fade — across many edges at 50% loss, at least one outcome flips.
func TestTryHopFrozenWithinEpoch(t *testing.T) {
	net := lossyNet(t, 40, LossConfig{Rate: 0.5, Retries: 0})
	type hop struct {
		att int
		ok  bool
	}
	snap := func() []hop {
		out := make([]hop, 0, net.N()-1)
		for u := 0; u+1 < net.N(); u++ {
			att, ok := net.TryHop(NodeID(u), NodeID(u+1))
			out = append(out, hop{att, ok})
		}
		return out
	}
	first := snap()
	for i, h := range snap() {
		if h != first[i] {
			t.Fatalf("edge %d outcome changed within an epoch: %+v vs %+v", i, h, first[i])
		}
	}
	net.RefreshAt(1)
	flipped := false
	for i, h := range snap() {
		if h != first[i] {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no edge outcome re-rolled across 39 edges after an epoch advance")
	}
}

// walkPath is the accounting contract every protocol-level unicast leg
// follows over TryHop: it moves one packet along path (len(path)-1 hops)
// and reports whether every hop could be completed against the current
// snapshot. The first transmission of each attempted hop is charged to cat
// and retransmissions to CatRetry. On a failed hop it stops at the break
// and returns the index of the node that still holds the packet — a hop
// that exhausted its retries still charges the transmissions it burned.
func walkPath(n *Network, cat Category, path []NodeID) (ok bool, holder int) {
	for i := 0; i+1 < len(path); i++ {
		att, delivered := n.TryHop(path[i], path[i+1])
		if att > 0 {
			n.Recorder().Record(cat, 1)
			n.Recorder().Record(CatRetry, int64(att-1))
		}
		if !delivered {
			return false, i
		}
	}
	return true, len(path) - 1
}

// TestWalkPathLossCharging pins the accounting contract: every attempted
// hop charges one transmission to the walk's category and its retries to
// CatRetry; the walk stops at the first undelivered hop.
func TestWalkPathLossCharging(t *testing.T) {
	net := lossyNet(t, 30, LossConfig{Rate: 0.4, Retries: 1})
	path := make([]NodeID, net.N())
	for i := range path {
		path[i] = NodeID(i)
	}
	before := net.Totals()
	ok, holder := walkPath(net, CatValidate, path)
	d := net.Totals().DiffSince(before)

	// Reconstruct the expected charges from the pure per-hop outcomes.
	var wantVal, wantRetry int64
	attempted := 0
	for i := 0; i+1 < len(path); i++ {
		att, delivered := net.TryHop(path[i], path[i+1])
		wantVal++
		wantRetry += int64(att - 1)
		attempted = i + 1
		if !delivered {
			break
		}
	}
	if ok {
		t.Fatalf("30-hop walk at 40%% loss x2 tries delivered end to end (p ~ %g)", 0.84)
	}
	if holder != attempted-1 { // the walk died on the hop out of holder
		t.Fatalf("holder %d inconsistent with %d attempted hops", holder, attempted)
	}
	if got := d.Get(CatValidate); got != wantVal {
		t.Fatalf("validate charges %d, want %d", got, wantVal)
	}
	if got := d.Get(CatRetry); got != wantRetry {
		t.Fatalf("retry charges %d, want %d", got, wantRetry)
	}
	if extra := d.Total() - wantVal - wantRetry; extra != 0 {
		t.Fatalf("%d transmissions charged outside validate+retry: %v", extra, d)
	}
}

// TestPartitionSchedule pins the partition-and-heal process: the barrier
// activates for the last Duration seconds of each Period, cuts every
// crossing link while active, and restores the original graph bit for bit
// on heal.
func TestPartitionSchedule(t *testing.T) {
	n := 60
	pts := make([]geom.Point, n)
	rng := xrand.New(3)
	a := geom.Rect{W: 400, H: 400}
	for i := range pts {
		pts[i] = geom.Point{X: rng.Range(0, a.W), Y: rng.Range(0, a.H)}
	}
	net := NewNetwork(mobility.NewStatic(pts, a), Config{
		Link:      topology.LinkModel{Uniform: 80},
		Partition: PartitionConfig{Period: 10, Duration: 3},
	}, xrand.New(1))

	crossing := func() int {
		cut := 0
		g := net.Graph()
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(NodeID(u)) {
				if (net.Position(NodeID(u)).X < a.W/2) != (net.Position(v).X < a.W/2) {
					cut++
				}
			}
		}
		return cut
	}
	if net.lm.BarrierActive {
		t.Fatal("partition active at t=0")
	}
	healthy := crossing()
	if healthy == 0 {
		t.Fatal("fixture has no barrier-crossing links; test is vacuous")
	}
	healthyLinks := net.Graph().Links()

	net.RefreshAt(8) // 8 >= 10-3: inside the partition window
	if !net.lm.BarrierActive {
		t.Fatal("partition inactive at t=8 (window [7, 10))")
	}
	if c := crossing(); c != 0 {
		t.Fatalf("%d links cross the active barrier", c)
	}

	net.RefreshAt(11) // healed: 11 mod 10 = 1 < 7
	if net.lm.BarrierActive {
		t.Fatal("partition still active at t=11")
	}
	if c := crossing(); c != healthy {
		t.Fatalf("healed graph has %d crossing links, want %d", c, healthy)
	}
	if net.Graph().Links() != healthyLinks {
		t.Fatalf("healed graph has %d links, want %d", net.Graph().Links(), healthyLinks)
	}
}

func TestLossConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"rate-one", Config{Link: topology.LinkModel{Uniform: 50}, Loss: LossConfig{Rate: 1}}},
		{"rate-negative", Config{Link: topology.LinkModel{Uniform: 50}, Loss: LossConfig{Rate: -0.1}}},
		{"rate-nan", Config{Link: topology.LinkModel{Uniform: 50}, Loss: LossConfig{Rate: math.NaN()}}},
		{"negative-retries", Config{Link: topology.LinkModel{Uniform: 50}, Loss: LossConfig{Rate: 0.1, Retries: -1}}},
		{"partition-duration", Config{Link: topology.LinkModel{Uniform: 50}, Partition: PartitionConfig{Period: 10, Duration: 10}}},
		{"partition-duration-nan", Config{Link: topology.LinkModel{Uniform: 50}, Partition: PartitionConfig{Period: 10, Duration: math.NaN()}}},
	}
	pts := []geom.Point{{X: 10, Y: 10}, {X: 40, Y: 10}}
	a := geom.Rect{W: 100, H: 100}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: invalid config accepted", tc.name)
				}
			}()
			NewNetwork(mobility.NewStatic(pts, a), tc.cfg, xrand.New(1))
		})
	}
}
