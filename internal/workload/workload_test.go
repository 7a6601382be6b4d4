package workload

import (
	"math"
	"testing"

	"card/internal/card"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/scheme"
	"card/internal/topology"
	"card/internal/xrand"
)

// testDriver is a minimal Driver over a static network: Advance only moves
// the clock (and refreshes the snapshot so epochs behave like the
// engine's). The full engine-backed path — scheduled maintenance, churn,
// parallel equivalence — is exercised by the engine package's
// TestWorkloadParallelEquivalence.
type testDriver struct {
	net  *manet.Network
	prot *card.Protocol
	now  float64
}

func newTestDriver(t *testing.T, seed uint64, n int) *testDriver {
	t.Helper()
	area := geom.Rect{W: 710, H: 710}
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, area, rng)
	net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 50}}, rng.Derive(1))
	cfg := card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2}
	nb := neighborhood.NewOracle(net, cfg.R)
	prot, err := card.New(net, nb, cfg, rng.Derive(2))
	if err != nil {
		t.Fatal(err)
	}
	m := prot.NewMaintainer()
	round := prot.NextRound()
	for u := 0; u < net.N(); u++ {
		m.SelectNode(card.NodeID(u), 0, round)
	}
	m.Flush()
	return &testDriver{net: net, prot: prot}
}

func (d *testDriver) Advance(dt float64) {
	if dt > 0 {
		d.now += dt
		d.net.RefreshAt(d.now)
	}
}
func (d *testDriver) Now() float64             { return d.now }
func (d *testDriver) Nodes() int               { return d.net.N() }
func (d *testDriver) Protocol() *card.Protocol { return d.prot }
func (d *testDriver) Network() *manet.Network  { return d.net }

func testTraffic() Config {
	return Config{
		QPS: 40, Duration: 5, Tick: 0.5,
		Resources: 24, Replicas: 3, ZipfS: 0.9,
		Window: 64, Seed: 11, KeepOutcomes: true,
	}
}

func TestRunValidatesConfig(t *testing.T) {
	d := newTestDriver(t, 1, 60)
	for name, bad := range map[string]Config{
		"no-qps":        {Duration: 5},
		"no-duration":   {QPS: 10},
		"negative-tick": {QPS: 10, Duration: 5, Tick: -1},
		"negative-zipf": {QPS: 10, Duration: 5, ZipfS: -0.5},
		"bad-scheme":    {QPS: 10, Duration: 5, Scheme: "zone-flooding"},
		"inf-qps":       {QPS: math.Inf(1), Duration: 5},
		"inf-duration":  {QPS: 10, Duration: math.Inf(1)},
		"nan-tick":      {QPS: 10, Duration: 5, Tick: math.NaN()},
		"inf-zipf":      {QPS: 10, Duration: 5, ZipfS: math.Inf(1)},
		// Work past the ceilings: 3e13 offered queries, 1e10 ticks.
		"qps-x-duration": {QPS: 1e12, Duration: 30},
		"tick-count":     {QPS: 1e-6, Duration: 1e7, Tick: 1e-3},
	} {
		if _, err := Run(d, bad); err == nil {
			t.Errorf("%s: bad config accepted", name)
		}
	}
}

func TestRunCARDStream(t *testing.T) {
	d := newTestDriver(t, 2, 250)
	rep, err := Run(d, testTraffic())
	if err != nil {
		t.Fatal(err)
	}
	// ~200 expected arrivals; Poisson keeps it near that.
	if rep.Queries < 120 || rep.Queries > 300 {
		t.Fatalf("arrivals = %d, want ~200", rep.Queries)
	}
	if len(rep.Outcomes) != rep.Queries {
		t.Fatalf("outcome stream %d != queries %d", len(rep.Outcomes), rep.Queries)
	}
	if rep.Found == 0 || rep.SuccessPct <= 0 {
		t.Error("no query succeeded on a connected replicated catalogue")
	}
	if rep.SrcDown != 0 {
		t.Errorf("%d sources down without churn", rep.SrcDown)
	}
	if rep.Horizon != 5 || d.Now() != 5 {
		t.Errorf("horizon %g, driver clock %g, want 5", rep.Horizon, d.Now())
	}
	if rep.Messages.N != int64(rep.Queries) {
		t.Errorf("message summary over %d samples, want %d", rep.Messages.N, rep.Queries)
	}
	if rep.Hops.N != int64(rep.Found) {
		t.Errorf("hop summary over %d samples, want %d successes", rep.Hops.N, rep.Found)
	}
	if rep.Messages.P50 > rep.Messages.P95 || rep.Messages.P95 > rep.Messages.P99 ||
		rep.Messages.P99 > rep.Messages.Max {
		t.Errorf("quantiles not monotone: %+v", rep.Messages)
	}
	if rep.WindowMessages.N == 0 {
		t.Error("trailing window empty after 5 s of traffic")
	}
	// Arrivals are strictly increasing within the horizon.
	prev := 0.0
	for i, o := range rep.Outcomes {
		if o.T < prev || o.T > 5 {
			t.Fatalf("outcome %d arrival %g out of order/horizon", i, o.T)
		}
		prev = o.T
	}
}

// TestRunDeterministic pins that two runs over identical engines and
// configs produce identical reports (the workload never reads wall clock
// or shared global state).
func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		d := newTestDriver(t, 3, 200)
		rep, err := Run(d, testTraffic())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Queries != b.Queries || a.Found != b.Found || a.Messages != b.Messages ||
		a.Hops != b.Hops || a.WindowMessages != b.WindowMessages {
		t.Fatalf("reports diverge:\n a %+v\n b %+v", a, b)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d diverges: %+v vs %+v", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
}

// TestSchemesShareOfferedLoad pins the cross-scheme fairness property: the
// same seed offers the bit-identical request sequence (arrival times,
// sources, resources) to every scheme — only the outcomes differ.
func TestSchemesShareOfferedLoad(t *testing.T) {
	schemes := scheme.Names()
	streams := make(map[string][]Query, len(schemes))
	reports := make(map[string]*Report, len(schemes))
	for _, s := range schemes {
		// 500 nodes over the 710 m square are well connected (mean degree
		// ~8): flooding pays component-sized per-query traffic there,
		// which is the paper's cost headline the last assertion pins.
		d := newTestDriver(t, 4, 500)
		cfg := testTraffic()
		cfg.Scheme = s
		rep, err := Run(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports[s] = rep
		for _, o := range rep.Outcomes {
			streams[s] = append(streams[s], o.Query)
		}
	}
	for _, s := range schemes {
		if s == CARD {
			continue
		}
		if len(streams[s]) != len(streams[CARD]) {
			t.Fatalf("%v offered %d queries, card %d", s, len(streams[s]), len(streams[CARD]))
		}
		for i := range streams[s] {
			if streams[s][i] != streams[CARD][i] {
				t.Fatalf("%v query %d = %+v, card %+v", s, i, streams[s][i], streams[CARD][i])
			}
		}
	}
	// Flooding answers every reachable request but pays component-sized
	// traffic: its success can't trail CARD's, its mean cost must exceed.
	if reports[Flood].SuccessPct < reports[CARD].SuccessPct {
		t.Errorf("flood success %.1f%% below CARD %.1f%%",
			reports[Flood].SuccessPct, reports[CARD].SuccessPct)
	}
	if reports[Flood].Messages.Mean <= reports[CARD].Messages.Mean {
		t.Errorf("flood mean cost %.1f not above CARD %.1f",
			reports[Flood].Messages.Mean, reports[CARD].Messages.Mean)
	}
}

// TestZipfSkewShowsInStream checks the popularity model end to end: with
// strong skew, the hottest resource rank is requested far more often than
// the coldest.
func TestZipfSkewShowsInStream(t *testing.T) {
	d := newTestDriver(t, 5, 100)
	cfg := testTraffic()
	cfg.QPS = 200
	cfg.ZipfS = 1.2
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.Resources)
	for _, o := range rep.Outcomes {
		counts[o.Resource]++
	}
	cold := counts[len(counts)-1] + counts[len(counts)-2]
	if counts[0] <= 3*cold {
		t.Errorf("rank 0 requested %d times vs coldest pair %d — skew missing", counts[0], cold)
	}
}

// TestOutcomesDroppedByDefault pins the memory contract for long runs.
func TestOutcomesDroppedByDefault(t *testing.T) {
	d := newTestDriver(t, 6, 100)
	cfg := testTraffic()
	cfg.KeepOutcomes = false
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes != nil {
		t.Errorf("outcomes retained without KeepOutcomes: %d", len(rep.Outcomes))
	}
	if rep.Queries == 0 || rep.Messages.N == 0 {
		t.Error("summaries missing when outcomes dropped")
	}
}
