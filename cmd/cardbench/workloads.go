package main

import (
	"fmt"
	"math"

	"card/internal/engine"
	"card/internal/workload"
)

// tick is the workload batching granularity in simulated seconds — the
// workload package's default. Tick ends, maintenance boundaries and the
// warm-up times below are all multiples of 0.5, so every clock value in
// a run is exactly representable and the replay's own clock can never
// drift an ulp from the engine's.
const tick = 0.5

// workloadDef is one benchmark workload: a world (preset plus overlay),
// a traffic shape, and the discovery schemes to run it under — one fresh
// engine per arm, all from the same seed.
type workloadDef struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why     string
	Preset  string
	Overlay func(*engine.NetworkConfig)
	// Traffic is the offered stream (QPS, catalogue, replicas, skew);
	// scheme, duration and seed are set per arm and phase.
	Traffic workload.Config
	Arms    []string
	// Warmup is the simulated time the engine advances, one maintenance
	// period at a time, before anything is measured. It is part of set-up.
	Warmup float64
	// SimPerSecond sizes the measured window: an arm's end-to-end phase
	// covers SimPerSecond·seconds simulated seconds, which takes about
	// `seconds` of host time (summed over arms) on the reference box. The
	// window is a function of the flags alone, never of the clock, so
	// simulated statistics repeat exactly.
	SimPerSecond float64
	// Setups is how many times set-up is repeated for the setup_s median.
	Setups int
}

var workloads = []workloadDef{
	{
		Name:   "city-5k",
		Why:    "the mainstream cardsim -preset -qps path: scalar links, resident views, full rounds; card maintenance is ~94% of a round tick, scheme baselines do nothing",
		Preset: "citywide-rwp-5k",
		Traffic: workload.Config{
			QPS: 200, Resources: 512, Replicas: 8, ZipfS: 0.9,
		},
		Arms:         []string{"card"},
		Warmup:       20,
		SimPerSecond: 3,
		Setups:       3,
	},
	{
		Name:   "rich-2k",
		Why:    "the same layers used differently: directed adjacency, masked updates, barrier-toggle full rebuilds, TryHop loss and retries, churn expiry, recovery splices",
		Preset: "churn-2k",
		Overlay: func(nc *engine.NetworkConfig) {
			nc.RangeSpread = 0.5
			nc.Loss, nc.LossRetries = 0.1, 3
			nc.PartitionPeriod, nc.PartitionDuration = 60, 15
		},
		Traffic: workload.Config{
			QPS: 100, Resources: 256, Replicas: 4, ZipfS: 0.9,
		},
		Arms:   []string{"card"},
		Warmup: 20,
		// 12·10 = 120 simulated seconds, ~15 s of host time, not 10: two
		// whole partition periods. Round ticks come in three regimes (before,
		// during and after a partition, ~190/310/250 ms); over one period the
		// median falls on the edge between two of them and swings 14% from
		// seed to seed, over two it sits inside the largest and swings 6%.
		SimPerSecond: 12,
		Setups:       3,
	},
	{
		Name:   "baselines-1k",
		Why:    "flood, ring, bordercast and rendezvous on one offered stream: scheme/flood/bordercast/resource do the query work and card.Querier none — the bypass workload for CARD query changes",
		Preset: "citywide-rwp-1k",
		Traffic: workload.Config{
			QPS: 200, Resources: 256, Replicas: 4, ZipfS: 0.9,
		},
		Arms:         []string{"flood", "ring", "bordercast", "rendezvous"},
		Warmup:       20,
		SimPerSecond: 4,
		Setups:       3,
	},
	{
		Name:   "sparse-100k",
		Why:    "the 1M rung's code path at a size that sets up in half a minute: lazy stepper, masked dirty update, dirty expansion, Retain, deficit bitset, on-demand ViewCache; static field, rare churn",
		Preset: "citywide-rwp-100k",
		Overlay: func(nc *engine.NetworkConfig) {
			// Static, not the preset's RWP: its synchronized initial pause
			// means no motion until t=60 and nearly everyone moving after,
			// so it has no sparse steady state. Rare churn (~9 flips per
			// maintenance period) dirties ~14% of the field per round.
			nc.Mobility = engine.Static
			nc.ChurnMeanUp, nc.ChurnMeanDown = 20000, 2000
			nc.ViewCacheCap = nc.Nodes / 4 // the metro-rwp-1m ratio
		},
		Traffic: workload.Config{
			QPS: 20, Resources: 512, Replicas: 8, ZipfS: 0.9,
		},
		Arms: []string{"card"},
		// 40, not 20: the cold-start deficit takes that long to drain.
		Warmup: 40,
		// 12·10 = 120 simulated seconds take ~14 s, not 10: at 20 qps a
		// shorter window offers too few queries for found_pct to repeat
		// between seeds.
		SimPerSecond: 12,
		// One set-up takes half a minute, which already repeats within a
		// percent; three would take a run past the driver's time limit.
		Setups: 1,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// tinyNodes is the world size of -scale tiny, the smoke-test scale.
const tinyNodes = 150

// world resolves the workload's preset and overlay into the network and
// protocol configuration of one engine. Under tiny the node count drops
// to tinyNodes at the preset's density, so the tests drive the same code
// paths in milliseconds. A field that small has few nodes 2R..r hops
// apart, so most selection walks come home empty and an unbounded retry
// budget would dominate every round; tiny caps it.
func (w workloadDef) world(seed uint64, tiny bool) (engine.Preset, error) {
	p, err := engine.LookupPreset(w.Preset)
	if err != nil {
		return engine.Preset{}, err
	}
	if tiny {
		shrink := math.Sqrt(float64(tinyNodes) / float64(p.Net.Nodes))
		p.Net.Nodes = tinyNodes
		p.Net.Width *= shrink
		p.Net.Height *= shrink
		p.Protocol.MaxFailedWalks = 2
	}
	if w.Overlay != nil {
		w.Overlay(&p.Net)
	}
	p.Net.Seed = seed
	return p, nil
}

// plan is the simulated length of each phase of one run. A zero window
// skips the phase.
type plan struct {
	Setups int
	Warmup float64
	E2E    float64 // serial, untraced: every end-to-end metric
	Par    float64 // all cores, untraced: the par_speedup ratios
	Replay float64 // serial, traced: the per-layer numbers
	// ReachNodes is how many seed-sampled up nodes reach_pct averages.
	ReachNodes int
}

// Which phases a run includes.
const (
	traceOff  = 0  // set-up and the end-to-end phase only
	traceOn   = 1  // one set-up, a short end-to-end reference, par and replay
	traceBoth = -1 // everything, at full end-to-end length
)

// planFor sizes the phases from the flags. A traced run splits the same
// simulated length three ways, so it costs about what an untraced one does.
func (w workloadDef) planFor(seconds float64, trace int, tiny bool) plan {
	window := wholePeriods(w.SimPerSecond * seconds)
	p := plan{Setups: w.Setups, Warmup: w.Warmup, ReachNodes: 1024}
	if tiny {
		window = 4
		p.Setups, p.Warmup, p.ReachNodes = 2, 2, 32
	}
	third := wholePeriods(window / 3)
	switch trace {
	case traceOff:
		p.E2E = window
	case traceOn:
		p.Setups = 1
		p.E2E, p.Par, p.Replay = third, third, third
	default:
		p.E2E, p.Par, p.Replay = window, third, third
	}
	return p
}

// wholePeriods rounds a simulated length down to whole 2 s maintenance
// periods (every workload's ValidatePeriod), at least two, so each phase
// starts and ends on a round boundary.
func wholePeriods(simSeconds float64) float64 {
	const period = 2
	n := math.Floor(simSeconds / period)
	if n < 2 {
		n = 2
	}
	return n * period
}
