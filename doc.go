// Package card is a Go reproduction of "Contact-Based Architecture for
// Resource Discovery (CARD) in Large Scale MANets" (Garg, Pamu, Nahata,
// Helmy — IPDPS 2003), grown into a deterministic, parallel MANET
// simulation engine.
//
// CARD discovers resources in large mobile ad hoc networks without
// flooding, hierarchy, or GPS. Each node proactively tracks its R-hop
// neighborhood and maintains a handful of contacts — nodes 2R..r hops away
// with non-overlapping neighborhoods — that act as small-world short cuts.
// Queries escalate through levels of contacts instead of expanding rings
// of flooding.
//
// # The facade
//
// [Simulation] is the package's entry point: it binds a mobile network, a
// proactive neighborhood substrate and a CARD protocol instance, and runs
// any registered discovery scheme — the flooding, ZRP-bordercasting and
// rendezvous baselines included — on the same topology
// ([Simulation.BatchQuery]). Construct one from explicit configs
// ([NewSimulation]) or from a named workload preset
// ([NewPresetSimulation]; see [Presets]). The full stack lives under
// internal/ — unit-disk topology (incremental spatial-hash builder), six
// mobility models, a round-stepped engine, the converged R-hop view
// table, the protocol itself — and Simulation embeds the engine, whose
// accessors serve advanced use (direct network and protocol access).
//
// # Determinism guarantees
//
// Every run is a pure function of (configuration, seed). The package
// carries its own RNG suite (SplitMix64 seeding, xoshiro256++ streams), so
// results are bit-identical across machines and Go releases; every
// concurrent code path is pinned bit-identical to its serial reference:
//
//   - BatchQuery fans lookups through any scheme across workers; results
//     and message accounting equal a sequential loop at any GOMAXPROCS.
//   - The selection/maintenance rounds inside Advance, SelectContacts and
//     Maintain shard nodes across workers, with each node drawing from a
//     counter-based (node, round) RNG substream — tables, statistics and
//     recorder totals equal the serial id-order loop at any GOMAXPROCS,
//     the one fan-out width.
//   - Node churn (NetworkConfig.ChurnMeanUp / ChurnMeanDown) schedules
//     per-node up/down phases from per-node derived streams, so churned
//     runs — including the parallel paths above — stay reproducible.
//   - [Simulation.RunWorkload] streams sustained open-loop query traffic
//     (Poisson arrivals, Zipf-skewed resource popularity) in sharded ticks
//     interleaved with maintenance; the per-query outcome stream and the
//     recorder totals equal the serial execution at any GOMAXPROCS.
//   - [SweepGrid] spans parameter studies over the configuration axes
//     ([ParseSweepSpec], e.g. "NoC=1..10;r=6..20"): every (point, seed)
//     cell is an isolated engine run on a counter-based substream of the
//     root seed, sharded across workers with bit-identical metrics at any
//     GOMAXPROCS, aggregated into the overhead-vs-reachability Pareto
//     frontier ([SweepResult]).
//
// The source side of these guarantees is enforced at compile time by
// cardlint (internal/lint), a static-analysis suite whose meta-test runs
// over the whole module under go test: no order-sensitive map iteration,
// no wall-clock or global-RNG reads in sim code, goroutines and raw
// locks only inside internal/par, and per-(item, round) xrand stream
// discipline around the worker pool. Deliberate exceptions carry a
// reviewed //cardlint:<key> <reason> annotation; see the "Determinism
// contract" section of DESIGN.md.
//
// # Scenarios
//
// NetworkConfig selects the movement structure: [Static], [RandomWaypoint]
// (the paper's model), [RandomWalk], [GaussMarkov] (smooth autoregressive
// drift), [GroupMobility] (reference-point group mobility) or
// [TraceReplay] (ns-2 setdest traces, piecewise-linearly interpolated).
// Churn overlays any of them: down nodes lose their links and contacts,
// and re-enter cold. Ready-made large-scale presets (dense sensor fields,
// rescue groups, citywide fleets at 1k–10k nodes, churned fleets) are
// listed by [Presets].
//
// # Observability
//
// [Simulation.Report] is a run's one self-describing record: what was run
// (effective configs, seed, schema, build revision), the topology census,
// the achieved contact tables, every message category in total and per
// node with one overhead definition ([MessageCounts.Overhead]) and the
// query phases. encoding/json is its serialization (cardsim -format json).
//
// Quick start:
//
//	sim, err := card.NewSimulation(card.NetworkConfig{
//	    Nodes: 500, Width: 710, Height: 710, TxRange: 50, Seed: 1,
//	}, card.Config{R: 3, MaxContactDist: 16, NoC: 5})
//	if err != nil { ... }
//	sim.SelectContacts()
//	res, err := sim.QueryVia(card.SchemeCARD, 12, 451) // res.Found, res.Depth
//
//	sim.Advance(30) // drift-free schedule
//	results, err := sim.BatchQuery(card.SchemeFlood, sim.RandomPairs(500, 7))
//
//	sim, err = card.NewPresetSimulation("churn-2k", 42)
//	report, err := sim.RunWorkload(card.WorkloadConfig{ // sustained traffic
//	    QPS: 150, Duration: 60, Resources: 256, Replicas: 4, ZipfS: 0.9,
//	})
//
// The experiment harness regenerating every table and figure of the paper
// lives in cmd/cardsim; see README.md for the preset and experiment
// tables and DESIGN.md for the engine layering and per-experiment index.
package card
