package engine

import (
	"reflect"
	"runtime"
	"testing"

	"card/internal/workload"
)

// lossyNet is the adversarial rich-links scenario: heterogeneous radios
// (directed graph), per-hop loss with a retry budget, scheduled
// partition-and-heal events, node churn, and mobility — every new
// link-layer feature at once.
func lossyNet(nodes int) NetworkConfig {
	return NetworkConfig{
		Nodes: nodes, Width: 600, Height: 600, TxRange: 55,
		Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 12, Pause: 1,
		ChurnMeanUp: 30, ChurnMeanDown: 6,
		RangeSpread: 0.4, Loss: 0.15, LossRetries: 2,
		PartitionPeriod: 6, PartitionDuration: 2,
		Seed: 31,
	}
}

// TestLossyParallelEquivalence pins the determinism contract on the
// richer link layer: over a directed, lossy, partitioning, churning
// scenario, the sustained-traffic outcome stream, the report aggregates
// and the recorder totals (retries included) are bit-identical between
// serial execution at GOMAXPROCS 1 and sharded execution at every
// equivWidths width. Loss outcomes are a pure function of (epoch, edge,
// attempt), so no scheduling order can leak in; CI runs this under -race.
func TestLossyParallelEquivalence(t *testing.T) {
	run := func(w width) (*workload.Report, MessageCounts) {
		defer runtime.GOMAXPROCS(w.setBuild())
		e := newEngine(t, lossyNet(250), testCfg())
		e.SelectContacts()
		runtime.GOMAXPROCS(w.run)
		rep, err := e.RunWorkload(workload.Config{
			QPS: 30, Duration: 5, Tick: 0.5,
			Resources: 24, Replicas: 2, ZipfS: 0.9,
			Window: 64, Seed: 5, KeepOutcomes: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, e.Messages()
	}
	base, baseMsgs := run(serial)
	if base.Queries == 0 || base.Found == 0 {
		t.Fatalf("degenerate reference run: %+v", base)
	}
	if baseMsgs.Retry == 0 {
		t.Fatal("reference run charged no retries; loss not exercised")
	}
	for _, w := range equivWidths {
		t.Run(w.name, func(t *testing.T) {
			got, gotMsgs := run(w)
			if gotMsgs != baseMsgs {
				t.Errorf("recorder totals diverge:\n got  %+v\n want %+v", gotMsgs, baseMsgs)
			}
			if !reflect.DeepEqual(got.Outcomes, base.Outcomes) {
				t.Errorf("outcome stream diverges from serial run")
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("report diverges:\n got  %+v\n want %+v", got, base)
			}
		})
	}
}

// TestLossyEngineDeterministic pins that two identical rich-links runs —
// directed graph, loss, partitions, churn — are bit-identical end to end.
func TestLossyEngineDeterministic(t *testing.T) {
	run := func() (MessageCounts, float64) {
		e := newEngine(t, lossyNet(200), testCfg())
		e.SelectContacts()
		e.Advance(12) // crosses two partition windows
		return e.Messages(), e.MeanReachability(1)
	}
	m1, r1 := run()
	m2, r2 := run()
	if m1 != m2 {
		t.Fatalf("message totals differ between identical runs:\n %+v\n %+v", m1, m2)
	}
	if r1 != r2 {
		t.Fatalf("reachability differs between identical runs: %g vs %g", r1, r2)
	}
}

// TestNetworkConfigLinkValidation pins the engine-level validation of the
// new link-layer fields.
func TestNetworkConfigLinkValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*NetworkConfig)
	}{
		{"loss-one", func(nc *NetworkConfig) { nc.Loss = 1 }},
		{"loss-negative", func(nc *NetworkConfig) { nc.Loss = -0.2 }},
		{"spread-one", func(nc *NetworkConfig) { nc.RangeSpread = 1 }},
		{"negative-retries", func(nc *NetworkConfig) { nc.Loss = 0.1; nc.LossRetries = -1 }},
		{"period-without-duration", func(nc *NetworkConfig) { nc.PartitionPeriod = 10 }},
		{"duration-without-period", func(nc *NetworkConfig) { nc.PartitionDuration = 2 }},
		{"duration-over-period", func(nc *NetworkConfig) { nc.PartitionPeriod = 5; nc.PartitionDuration = 5 }},
		{"churn-up-without-down", func(nc *NetworkConfig) { nc.ChurnMeanUp = 30 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			nc := testNet(60)
			tc.mutate(&nc)
			if _, err := New(nc, testCfg()); err == nil {
				t.Fatalf("%s: invalid config accepted", tc.name)
			}
		})
	}
}
