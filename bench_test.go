package card

// The root benchmarks cover two things: BenchmarkExperiment regenerates
// every table and figure of the evaluation through the experiment registry
// (the same entries cmd/cardsim runs) at a reduced, density-preserving
// scale; the engine-level benchmarks below it time the scenario engine on
// its workload presets. Neither is where numbers come from — cardbench is
// — and the reproduced values themselves are pinned by the experiments
// package's Quick tests and golden file.

import (
	"runtime"
	"testing"

	"card/internal/experiments"
)

// benchOpts keeps every figure bench at a size that completes quickly
// while preserving node density and parameter shape.
func benchOpts() experiments.Options {
	return experiments.Options{Seeds: 1, Scale: 0.4}
}

// BenchmarkExperiment runs one sub-benchmark per registered experiment;
// `scale` is left out (it times the engine presets, which the benchmarks
// below do one by one).
func BenchmarkExperiment(b *testing.B) {
	for _, id := range experiments.Names() {
		if id == "scale" {
			continue
		}
		e, err := experiments.Lookup(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tab := e.Run(benchOpts()); len(tab.Rows) == 0 {
					b.Fatalf("%s rendered no rows", id)
				}
			}
		})
	}
}

// scale1kScenario is the engine-scaling workload: a 1000-node
// random-waypoint fleet — nomadic teams that relocate in 10-19 m/s bursts
// between long dwells, the paper's §II rescue/military deployments —
// observed at a 20 Hz link-sensing rate (every Advance step refreshes the
// connectivity snapshot) and answering a 500-query batch. At that sensing
// rate topology recomputation dominates; dwell times keep most nodes
// stationary per step, which is what the incremental builder exploits.
func scale1kScenario() (NetworkConfig, Config) {
	return NetworkConfig{
			Nodes: 1000, Width: 1500, Height: 1500, TxRange: 100,
			Mobility: RandomWaypoint, MinSpeed: 10, MaxSpeed: 19, Pause: 300,
			Seed: 11,
		}, Config{
			// Bounded CSQ retries and a 15 s validation period keep contact
			// churn realistic for slow-churn deployments; the workload's hot
			// path is the 20 Hz topology sensing, not reselection storms.
			R: 2, MaxContactDist: 10, NoC: 5, Depth: 2, ValidatePeriod: 15,
			MaxFailedWalks: 3,
		}
}

// newScale1k builds the scenario and runs it to mobility steady state
// (past the synchronized initial pause, with node phases spread out) in
// coarse steps. This is the benchmarks' untimed setup.
func newScale1k(tb testing.TB) *Simulation {
	nc, cfg := scale1kScenario()
	sim, err := NewSimulation(nc, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sim.SelectContacts()
	// Run past the synchronized initial pause and first relocation waves so
	// node phases spread across the pause+travel cycle (~350 s): from here
	// on a steady minority of the fleet is in motion at any instant.
	for sim.Now() < 900 {
		sim.Advance(1)
	}
	return sim
}

// runScale1k is the measured workload: 30 simulated seconds at 20 Hz link
// sensing followed by a 500-query batch.
func runScale1k(tb testing.TB, sim *Simulation, horizon float64) []DiscoveryResult {
	for target := sim.Now() + horizon; sim.Now() < target; {
		sim.Advance(0.05)
	}
	pairs := sim.RandomPairs(500, 77)
	if len(pairs) != 500 {
		tb.Fatalf("drew %d pairs, want 500", len(pairs))
	}
	res, err := sim.BatchQuery(SchemeCARD, pairs)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// BenchmarkScale1kGrid times the measured half of the 1k-node scenario.
func BenchmarkScale1kGrid(b *testing.B) {
	sim := newScale1k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runScale1k(b, sim, 30)
	}
}

// BenchmarkEndToEndQuery measures one BatchQuery of 100 CARD lookups per
// op on a standing 500-node network — the protocol's steady-state hot
// path behind the fan-out every query batch runs through.
func BenchmarkEndToEndQuery(b *testing.B) {
	sim, err := NewSimulation(NetworkConfig{
		Nodes: 500, Width: 710, Height: 710, TxRange: 50, Seed: 1,
	}, Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2})
	if err != nil {
		b.Fatal(err)
	}
	sim.SelectContacts()
	pairs := sim.RandomPairs(100, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.BatchQuery(SchemeCARD, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectionRound measures one full network-wide contact-selection
// round (500 nodes).
func BenchmarkSelectionRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulation(NetworkConfig{
			Nodes: 500, Width: 710, Height: 710, TxRange: 50, Seed: uint64(i),
		}, Config{R: 3, MaxContactDist: 16, NoC: 5})
		if err != nil {
			b.Fatal(err)
		}
		sim.SelectContacts()
	}
}

// benchMaintain5k measures network-wide maintenance rounds on the
// citywide-rwp-5k preset — the write-side hot loop the parallel round
// fan-out exists for. Mobility stepping and the topology refresh are
// serial fixed cost shared by both variants, so they run off the clock:
// each iteration churns the network untimed, then times one forced
// Maintain round on the fresh snapshot. Setup (build + initial selection)
// always runs at the default GOMAXPROCS; only the measured iterations run
// at procs, which is sound because the serial and sharded paths are
// bit-identical (TestMaintainParallelEquivalence).
//
// The timed rounds start at t = 20 s, as cardbench's warm-up does: until
// t = 10 s every RWP node of the preset is still in its initial pause, and
// a round over that frozen field does a tenth of the steady regime's walk
// work.
func benchMaintain5k(b *testing.B, procs int) {
	sim, err := NewPresetSimulation("citywide-rwp-5k", 1)
	if err != nil {
		b.Fatal(err)
	}
	sim.SelectContacts()
	sim.Advance(20)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	period := sim.Config().ValidatePeriod
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim.Advance(0.95 * period) // mobility + topology churn, off the clock
		b.StartTimer()
		sim.Maintain()
	}
}

// BenchmarkMaintain5k times the rounds at GOMAXPROCS 1, the serial
// reference, and at the runner's whole GOMAXPROCS (CI smoke row 2 runs
// both). How much the fan-out buys on a multi-core runner is ROADMAP
// item 7's open question, not a CI gate.
func BenchmarkMaintain5k(b *testing.B) {
	b.Run("procs=1", func(b *testing.B) { benchMaintain5k(b, 1) })
	b.Run("procs=all", func(b *testing.B) { benchMaintain5k(b, runtime.GOMAXPROCS(0)) })
}

// benchScenarioAdvance measures one ValidatePeriod of engine time —
// mobility stepping, (masked) topology refresh, churn expiry and the
// maintenance round — on a named preset: the end-to-end cost of the
// scenario-diversity workloads. CI smoke row 3 runs the three variants below.
func benchScenarioAdvance(b *testing.B, preset string) {
	sim, err := NewPresetSimulation(preset, 1)
	if err != nil {
		b.Fatal(err)
	}
	sim.SelectContacts()
	period := sim.Config().ValidatePeriod
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(period)
	}
}

// BenchmarkAdvanceGM5k is Gauss–Markov drift at the 5k scale;
// BenchmarkAdvanceGroups1k is reference-point group mobility;
// BenchmarkAdvanceChurn2k is RWP plus node churn (masked incremental
// topology + contact expiry on every refresh).
func BenchmarkAdvanceGM5k(b *testing.B)     { benchScenarioAdvance(b, "citywide-gm-5k") }
func BenchmarkAdvanceGroups1k(b *testing.B) { benchScenarioAdvance(b, "rescue-groups-1k") }
func BenchmarkAdvanceChurn2k(b *testing.B)  { benchScenarioAdvance(b, "churn-2k") }

// BenchmarkWorkloadSustained1k measures the sustained-traffic engine end
// to end on the citywide-rwp-1k preset: each iteration streams 5 simulated
// seconds of 200 qps Zipf-skewed open-loop query traffic, interleaving
// mobility, topology refreshes and maintenance rounds with the sharded
// per-tick query batches. CI smoke row 4 — the serving-scale path every future
// caching/replication feature lands on.
func BenchmarkWorkloadSustained1k(b *testing.B) {
	sim, err := NewPresetSimulation("citywide-rwp-1k", 1)
	if err != nil {
		b.Fatal(err)
	}
	sim.SelectContacts()
	var last *WorkloadReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.RunWorkload(WorkloadConfig{
			QPS: 200, Duration: 5, Resources: 256, Replicas: 4, ZipfS: 0.9,
			Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.ReportMetric(last.SuccessPct, "success-%")
	b.ReportMetric(last.Messages.P95, "msgs-p95")
	b.ReportMetric(float64(last.Queries)/5, "achieved-qps")
}

// BenchmarkSweepGrid1k measures the parameter-sweep engine end to end on
// the citywide-rwp-1k preset: a 6-point NoC x r grid, one isolated
// 1000-node engine per cell (initial selection, 4 s of maintained
// mobility, a 100-query batch), sharded across the cell pool with the
// Pareto frontier extracted. CI smoke row 5 — grid tuning at the 1k scale.
func BenchmarkSweepGrid1k(b *testing.B) {
	p, err := LookupPreset("citywide-rwp-1k")
	if err != nil {
		b.Fatal(err)
	}
	axes, err := ParseSweepSpec("NoC=4,8;r=8..12..2")
	if err != nil {
		b.Fatal(err)
	}
	var last *SweepResult
	for i := 0; i < b.N; i++ {
		g := &SweepGrid{Base: p.Protocol, Axes: axes, Seeds: 1}
		net := p.Net
		net.Seed = uint64(i) + 1
		er := SweepEngineRunner{Net: net, Horizon: 4, Queries: 100}
		res, err := g.Run(er.Run)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	front := last.Pareto()
	b.ReportMetric(float64(len(front)), "pareto-points")
	best := last.Points[front[len(front)-1]].Metrics
	b.ReportMetric(best.Reach, "frontier-max-reach-%")
	b.ReportMetric(best.Overhead, "frontier-max-overhead")
}

// new100k builds the citywide-rwp-100k preset simulation with initial
// contacts selected — the shared untimed setup of the 100k benchmarks.
// The preset runs DirtyMaintenance: long RWP pauses keep per-refresh
// adjacency diffs sparse, so steady-state rounds touch a small fraction
// of the 100k tables, which is the regime these benchmarks record.
func new100k(tb testing.TB) *Simulation {
	sim, err := NewPresetSimulation("citywide-rwp-100k", 1)
	if err != nil {
		tb.Fatal(err)
	}
	sim.SelectContacts()
	return sim
}

// BenchmarkAdvance100k measures one ValidatePeriod of engine time on the
// 100k preset — mobility stepping, incremental topology refresh, dirty-set
// expansion and the restricted maintenance round. CI smoke row 6 runs it with
// -benchmem.
func BenchmarkAdvance100k(b *testing.B) {
	sim := new100k(b)
	period := sim.Config().ValidatePeriod
	// Warm up past the deficit-draining rounds that follow a cold
	// SelectContacts: below-NoC stragglers retry with fresh randomness each
	// round, and under the preset seed the deficit hits zero by t=34 (17
	// ticks). The timed window then measures the steady state the preset
	// spends almost all its time in — quiet refreshes inside the initial
	// dwell. Every node departs at exactly Pause=60 (and the wake pop is
	// strict), so iterations stay quiet through t=60: -benchtime up to 12x
	// is steady-state; beyond that the field wakes and mobility work mixes
	// in. CI records 1x.
	for i := 0; i < 17; i++ {
		sim.Advance(period)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(period)
	}
	b.ReportMetric(float64(sim.Engine.LastRoundNodes()), "round-nodes")
}

// BenchmarkMaintain100k isolates the restricted maintenance round at 100k:
// mobility and the topology refresh run off the clock (as in
// benchMaintain5k), so the timed section is dirty-list construction plus
// the round over it.
func BenchmarkMaintain100k(b *testing.B) {
	sim := new100k(b)
	period := sim.Config().ValidatePeriod
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim.Advance(0.95 * period) // mobility + dirty accumulation, off the clock
		b.StartTimer()
		sim.Maintain()
	}
	b.ReportMetric(float64(sim.Engine.LastRoundNodes()), "round-nodes")
}

// BenchmarkWorkload100k streams 2 simulated seconds of 200 qps Zipf-skewed
// open-loop traffic against the 100k network per iteration — the
// serving-scale record at the ceiling-breaking size. The workload path
// retains no per-query slices (stats.Window + Welford), so the iteration
// cost is query execution, not report assembly.
func BenchmarkWorkload100k(b *testing.B) {
	sim := new100k(b)
	var last *WorkloadReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.RunWorkload(WorkloadConfig{
			QPS: 200, Duration: 2, Resources: 512, Replicas: 8, ZipfS: 0.9,
			Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.ReportMetric(last.SuccessPct, "success-%")
	b.ReportMetric(float64(last.Queries)/2, "achieved-qps")
}

// new1M builds the metro-rwp-1m preset simulation with initial contacts
// selected — the shared untimed setup of the million-node benchmarks.
// Construction plus the sharded cold-start selection round dominate the
// setup; the timed sections below are steady state.
func new1M(tb testing.TB) *Simulation {
	sim, err := NewPresetSimulation("metro-rwp-1m", 1)
	if err != nil {
		tb.Fatal(err)
	}
	sim.SelectContacts()
	return sim
}

// BenchmarkAdvance1M measures one ValidatePeriod of engine time on the
// million-node preset — lazy mobility stepping (only un-paused travelers),
// moved-list topology refresh, dirty expansion, deficit-merged restricted
// round, on-demand capped neighborhood views. CI smoke row 9 runs it with
// -benchmem. Expect single iterations: the point is the absolute
// per-tick cost at N=10⁶, not ns/op statistics.
func BenchmarkAdvance1M(b *testing.B) {
	sim := new1M(b)
	period := sim.Config().ValidatePeriod
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(period)
	}
	b.ReportMetric(float64(sim.Engine.LastRoundNodes()), "round-nodes")
}

// BenchmarkMaintain1M isolates the restricted maintenance round at 10⁶
// nodes: mobility and the topology refresh run off the clock (as in
// benchMaintain5k), so the timed section is deficit∪dirty list
// construction plus the round over it.
func BenchmarkMaintain1M(b *testing.B) {
	sim := new1M(b)
	period := sim.Config().ValidatePeriod
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim.Advance(0.95 * period) // mobility + dirty accumulation, off the clock
		b.StartTimer()
		sim.Maintain()
	}
	b.ReportMetric(float64(sim.Engine.LastRoundNodes()), "round-nodes")
}

// BenchmarkMaintenanceRound measures a network-wide validation round under
// mobility.
func BenchmarkMaintenanceRound(b *testing.B) {
	sim, err := NewSimulation(NetworkConfig{
		Nodes: 500, Width: 710, Height: 710, TxRange: 50, Seed: 3,
		Mobility: RandomWaypoint,
	}, Config{R: 3, MaxContactDist: 16, NoC: 5, ValidatePeriod: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	sim.SelectContacts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Advance(0.5)
	}
}

// BenchmarkSchemeSustained1k runs the identical sustained workload on the
// 1k preset under each headline discovery scheme — CARD, Rendezvous
// Regions, bordercast — so the comparative overhead claim has a standing
// ledger (CI smoke row 8).
func BenchmarkSchemeSustained1k(b *testing.B) {
	for _, s := range []WorkloadScheme{SchemeCARD, SchemeRendezvous, SchemeBordercast} {
		b.Run(s, func(b *testing.B) {
			sim, err := NewPresetSimulation("citywide-rwp-1k", 1)
			if err != nil {
				b.Fatal(err)
			}
			sim.SelectContacts()
			var last *WorkloadReport
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := sim.RunWorkload(WorkloadConfig{
					QPS: 100, Duration: 5, Resources: 128, Replicas: 2,
					ZipfS: 0.9, Scheme: s, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rep
			}
			b.ReportMetric(last.SuccessPct, "success-%")
			b.ReportMetric(last.Messages.Mean, "msgs-mean")
			b.ReportMetric(last.Messages.P95, "msgs-p95")
		})
	}
}

// BenchmarkAdvanceHetero5k measures one ValidatePeriod on the
// disaster-hetero-5k preset: heterogeneous ±50% radios make the unit-disk
// graph directed (separate in/out adjacency maintained on every refresh,
// bidirectional hop checks on every walk) and the partition-and-heal
// schedule forces periodic full rebuilds — the end-to-end cost record for
// the directed link layer. CI smoke row 10.
func BenchmarkAdvanceHetero5k(b *testing.B) { benchScenarioAdvance(b, "disaster-hetero-5k") }

// BenchmarkWorkloadLossy10k streams 2 simulated seconds of 100 qps
// Zipf-skewed traffic against the lossy-metro-10k preset per iteration:
// every unicast hop rolls the deterministic loss process and pays its
// retry tax, so this is the serving-scale record for the probabilistic
// link layer. The retry-share metric (retransmissions as a fraction of
// all transmissions over the streamed window, maintenance included) keeps
// the tax visible in the bench output. CI smoke row 10.
func BenchmarkWorkloadLossy10k(b *testing.B) {
	sim, err := NewPresetSimulation("lossy-metro-10k", 1)
	if err != nil {
		b.Fatal(err)
	}
	sim.SelectContacts()
	before := sim.Engine.Messages()
	var last *WorkloadReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sim.RunWorkload(WorkloadConfig{
			QPS: 100, Duration: 2, Resources: 512, Replicas: 8, ZipfS: 0.9,
			Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.StopTimer()
	b.ReportMetric(last.SuccessPct, "success-%")
	m := sim.Engine.Messages()
	retries := float64(m.Retry - before.Retry)
	total := float64(m.Total() - before.Total())
	if total > 0 {
		b.ReportMetric(100*retries/total, "retry-share-%")
	}
}

// BenchmarkFootprint1M pins the resident memory of the million-node rung:
// each iteration builds the full metro-rwp-1m simulation (flat protocol
// slabs, incremental builder state, capped view cache) through the
// cold-start selection round, then reports the live-heap delta it
// retains after a GC. Run with -benchmem for the allocation ledger; CI
// smoke row 9 runs it alongside the 1M advance/maintain benchmarks.
func BenchmarkFootprint1M(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	var live float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		sim := new1M(b)
		runtime.GC()
		runtime.ReadMemStats(&after)
		live = float64(after.HeapAlloc-before.HeapAlloc) / (1 << 20)
		runtime.KeepAlive(sim)
	}
	b.ReportMetric(live, "live-MB")
}
