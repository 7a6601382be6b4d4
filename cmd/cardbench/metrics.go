package main

// metricDef names one reported number. The tables below are the single
// source of the benchmark's contract: BENCHMARK.json is checked against
// them, every run reports exactly these names, and -compare reads its
// bounds here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. It covers
	// the spread between seeds (the driver runs each workload on ten) as
	// well as between runs; README.md records the measured spreads.
	Bound float64
	// Simulated marks statistics of the modelled network: for one seed
	// they repeat exactly, so any difference is a behaviour change, not
	// noise. The rest are host costs of producing them.
	Simulated bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator sees, all measured in the
// end-to-end phase (GOMAXPROCS 1, no spans). "s" and "ms" are host time;
// "sim-s" is simulated time.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "refresh_ms_p50", Unit: "ms", Better: lower, Bound: 0.15},
	{Name: "round_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "query_us", Unit: "us", Better: lower, Bound: 0.15},
	{Name: "sim_rate", Unit: "sim-s/s", Better: higher, Bound: 0.20},
	{Name: "alloc_mb_per_sim_s", Unit: "MB/sim-s", Better: lower, Bound: 0.15},
	{Name: "allocs_per_sim_s", Unit: "1/sim-s", Better: lower, Bound: 0.15},
	{Name: "heap_live_mb", Unit: "MB", Better: lower, Bound: 0.10},
	{Name: "found_pct", Unit: "%", Better: higher, Bound: 0.25, Simulated: true},
	{Name: "msgs_per_query", Unit: "msgs", Better: lower, Bound: 0.20, Simulated: true},
	{Name: "overhead_msgs_node_s", Unit: "msgs/node/s", Better: lower, Bound: 0.25, Simulated: true},
	{Name: "reach_pct", Unit: "%", Better: higher, Bound: 0.15, Simulated: true},
}

// schemes are the discovery arms the scheme.* metrics are reported for.
var schemes = []string{"card", "flood", "ring", "bordercast", "rendezvous"}

// perLayer lists the numbers of single layers. They come from the replay
// phase unless the comment says otherwise, carry no bound, and read 0 on
// a workload that does not exercise the layer that way.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := func(name string) metricDef { return metricDef{Name: name, Unit: "ms", Better: lower} }
	us := func(name string) metricDef { return metricDef{Name: name, Unit: "us", Better: lower} }
	count := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: lower} }
	defs := []metricDef{
		ms("mobility.step_ms_p50"),
		count("mobility.moved_per_tick", "nodes"),

		ms("topology.update_ms_p50"), // manet.refresh minus mobility.step
		count("topology.changed_per_tick", "nodes"),
		count("topology.full_rebuilds", "count"),
		count("topology.links", "count"),
		us("topology.bfs_us"), // Graph.BoundedBFS(u, R), mean over sampled nodes

		ms("manet.refresh_ms_p50"),
		ms("manet.refresh_ms_max"),
		count("manet.flips_per_tick", "nodes"),
		count("manet.retry_share_pct", "%"),

		ms("neighborhood.warm_ms_p50"),
		us("neighborhood.view_us"),
		count("neighborhood.ball_size", "nodes"),

		{Name: "card.select_s", Unit: "s", Better: lower}, // set-up
		us("card.select_us_node"),                         // set-up
		ms("card.maintain_ms_p50"),
		us("card.maintain_us_node"),
		ms("card.expire_ms_p50"),
		count("card.validate_msgs", "msgs/node/s"),
		count("card.recovery_msgs", "msgs/node/s"),
		count("card.select_msgs", "msgs/node/s"),
		count("card.backtrack_msgs", "msgs/node/s"),
		count("card.lost", "1/round"),
		count("card.recoveries", "1/round"),
		count("card.bound_drops", "1/round"),
		count("card.expired", "1/round"),
		{Name: "card.contacts_per_node", Unit: "count", Better: higher},
	}
	for _, s := range schemes {
		defs = append(defs,
			us("scheme."+s+".discover_us_p50"),
			us("scheme."+s+".discover_us_p95"),
			count("scheme."+s+".msgs_mean", "msgs"),
			metricDef{Name: "scheme." + s + ".found_pct", Unit: "%", Better: higher},
			count("scheme."+s+".alloc_b_query", "B"),
		)
	}
	return append(defs,
		ms("scheme.setup_ms"),
		ms("scheme.maintain_ms_p50"),
		us("scheme.flush_us"),

		ms("workload.batch_ms_p50"), // end-to-end phase: host time between Advance calls
		count("workload.batch_queries", "count"),

		metricDef{Name: "engine.new_s", Unit: "s", Better: lower}, // set-up
		ms("engine.refresh_ms_tail"),                              // end-to-end phase
		ms("engine.round_ms_tail"),                                // end-to-end phase
		count("engine.round_nodes", "nodes"),                      // end-to-end phase
		us("engine.round_us_node"),                                // end-to-end phase
		ms("engine.round_self_ms"),
		metricDef{Name: "engine.par_speedup_round", Unit: "x", Better: higher},
		metricDef{Name: "engine.par_speedup_query", Unit: "x", Better: higher},

		count("go.gc_cycles", "count"), // end-to-end phase
		ms("go.gc_pause_ms"),           // end-to-end phase
		count("go.heap_sys_mb", "MB"),  // end-to-end phase

		count("trace.overhead_pct", "%"),
	)
}
