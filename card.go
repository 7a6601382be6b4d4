package card

import (
	proto "card/internal/card"
	"card/internal/engine"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/sweep"
	"card/internal/topology"
	"card/internal/workload"
)

// NodeID identifies a node; ids are dense in [0, Nodes).
type NodeID = topology.NodeID

// Config parameterizes the CARD protocol; see the field docs in the
// underlying type. Zero values take the documented defaults (EM method,
// NoC 5, depth 1).
type Config = proto.Config

// Method selects the contact-selection protocol.
type Method = proto.Method

// Contact-selection methods (§III.C.2 of the paper).
const (
	// EM is the edge method — the paper's recommended protocol.
	EM = proto.EM
	// PM1 is the probabilistic method with eq. 1, P = (d-R)/(r-R).
	PM1 = proto.PM1
	// PM2 is the probabilistic method with eq. 2, P = (d-2R)/(r-2R).
	PM2 = proto.PM2
)

// QueryResult reports one CARD resource-discovery attempt.
type QueryResult = proto.QueryResult

// Contact is one contact-table entry.
type Contact = proto.Contact

// Stats aggregates protocol-level events (selections, losses, recoveries).
type Stats = proto.Stats

// NetworkConfig describes the simulated network; see the engine type for
// field docs.
type NetworkConfig = engine.NetworkConfig

// MobilityKind selects the node-movement model of a simulation.
type MobilityKind = engine.MobilityKind

// Mobility models.
const (
	// Static pins nodes at their initial uniform placement.
	Static = engine.Static
	// RandomWaypoint is the paper's mobility model.
	RandomWaypoint = engine.RandomWaypoint
	// RandomWalk moves nodes at constant speed with periodic random
	// direction changes, reflecting off the boundary.
	RandomWalk = engine.RandomWalk
	// GaussMarkov runs autoregressive speed/direction processes with
	// tunable memory (NetworkConfig.GMAlpha) — smooth correlated motion.
	GaussMarkov = engine.GaussMarkov
	// GroupMobility runs reference-point group mobility: groups follow a
	// shared waypoint leader with bounded per-member jitter.
	GroupMobility = engine.GroupMobility
	// TraceReplay replays an ns-2 setdest movement trace
	// (NetworkConfig.TracePath) with piecewise-linear interpolation.
	TraceReplay = engine.TraceReplay
)

// Pair is one (source, destination) query assignment for BatchQuery.
type Pair = engine.Pair

// MessageCounts reports cumulative control-message tallies by purpose.
type MessageCounts = engine.MessageCounts

// Preset is a named ready-to-run workload; see Presets.
type Preset = engine.Preset

// WorkloadConfig parameterizes a sustained open-loop query-traffic run:
// Poisson arrivals at QPS, Zipf-skewed resource popularity, sharded query
// ticks interleaved with mobility and maintenance. See the workload
// package docs for the traffic model and determinism contract.
type WorkloadConfig = workload.Config

// WorkloadReport aggregates one sustained-traffic run: success rate,
// P50/P95/P99 message and hop quantiles over the full stream, and the
// trailing sliding-window view.
type WorkloadReport = workload.Report

// WorkloadOutcome is one executed query of a sustained-traffic stream.
type WorkloadOutcome = workload.Outcome

// WorkloadScheme names the discovery mechanism sustained traffic
// exercises — any scheme registered with the pluggable scheme layer; see
// the Scheme* constants for the built-ins and SchemeNames for the full
// registered set.
type WorkloadScheme = workload.Scheme

// Discovery schemes for WorkloadConfig.Scheme and SweepGrid.Scheme.
const (
	// SchemeCARD runs contact-based discovery (the default), sharded
	// across workers per tick.
	SchemeCARD = workload.CARD
	// SchemeFlood runs the duplicate-suppressed flooding baseline.
	SchemeFlood = workload.Flood
	// SchemeExpandingRing runs the TTL-doubling anycast baseline.
	SchemeExpandingRing = workload.ExpandingRing
	// SchemeBordercast runs ZRP bordercasting with query detection.
	SchemeBordercast = workload.Bordercast
	// SchemeRendezvous runs Rendezvous Regions: resource keys hash to
	// geographic regions that registrations and lookups meet in.
	SchemeRendezvous = workload.Rendezvous
)

// DiscoveryResult reports one scheme-level discovery (QueryVia): whether
// a holder was found, which, the control messages spent and the route
// length.
type DiscoveryResult = resource.Result

// SchemeNames lists every registered discovery scheme name, sorted.
func SchemeNames() []string { return scheme.Names() }

// SweepAxis is one swept parameter of a SweepGrid: a canonical config
// axis name (R, r, NoC, D, Method, VP, Scheme, Loss, RangeSpread) and its
// values.
type SweepAxis = sweep.Axis

// SweepGrid spans a parameter study over the CARD configuration axes
// times seeds. Each (point, seed) cell runs as an isolated simulation;
// results are bit-identical serial vs sharded at any GOMAXPROCS. See the
// sweep package docs for the cell isolation / determinism contract.
type SweepGrid = sweep.Grid

// SweepMetrics are one cell's (or one seed-averaged point's) trade-off
// measurements: overhead per node per second, mean reachability, lookup
// success (a down source is a miss), and per-query message/hop quantiles.
type SweepMetrics = sweep.Metrics

// SweepResult is a completed sweep: per-cell runs, seed-averaged points,
// and the overhead-vs-reachability Pareto frontier (Pareto, JSON).
type SweepResult = sweep.Result

// SweepEngineRunner is the default sweep cell runner: one isolated engine
// run per cell, seeded from the counter-based substream (point, seed) of
// Net.Seed, the sweep's root seed. A cell's lookups over a 64-resource
// catalogue go through one worker of the cell's discovery scheme (card
// when none is named).
type SweepEngineRunner = sweep.EngineRunner

// ParseSweepSpec parses a sweep grid specification like
// "NoC=1..10;r=6..20" or "Method=EM,PM2;D=1..3"; see sweep.ParseSpec for
// the grammar.
func ParseSweepSpec(spec string) ([]SweepAxis, error) { return sweep.ParseSpec(spec) }

// Presets lists the built-in workload presets (dense-sensor-field,
// sparse-rescue, citywide-rwp-1k/5k/10k, ...), sorted by name.
func Presets() []Preset { return engine.Presets() }

// LookupPreset returns the preset registered under name.
func LookupPreset(name string) (Preset, error) { return engine.LookupPreset(name) }

// NewPresetSimulation builds a simulation for a named preset with the
// given seed.
func NewPresetSimulation(name string, seed uint64) (*Simulation, error) {
	p, err := engine.LookupPreset(name)
	if err != nil {
		return nil, err
	}
	e, err := p.New(seed)
	if err != nil {
		return nil, err
	}
	return &Simulation{e}, nil
}

// Simulation binds a mobile network, its proactive neighborhood substrate
// and a CARD protocol instance, and offers the flooding, expanding-ring,
// bordercast and rendezvous baselines on the same topology for comparison
// (QueryVia). It embeds [engine.Engine], which owns the time-stepping loop,
// the round and batch-query fan-outs and every accessor — Advance,
// SelectContacts, Maintain, Query, BatchQuery, RunWorkload, QueryVia,
// Reachability, MeanReachability, Stats, Messages, Nodes, UpNodes, Now,
// Config, Protocol, RandomPairs — and adds only the read-outs below.
//
// Mutating calls (Advance, SelectContacts, Maintain) are single-goroutine;
// run independent simulations on separate goroutines for parameter sweeps.
// BatchQuery — and, since the round fan-out, the selection/maintenance
// rounds inside Advance/SelectContacts/Maintain — parallelize internally
// across up to GOMAXPROCS workers, with results bit-identical to the
// serial loops at any GOMAXPROCS.
type Simulation struct {
	*engine.Engine
}

// NewSimulation builds a network per nc and a CARD instance per cfg.
func NewSimulation(nc NetworkConfig, cfg Config) (*Simulation, error) {
	e, err := engine.New(nc, cfg)
	if err != nil {
		return nil, err
	}
	return &Simulation{e}, nil
}

// Contacts returns node u's current contact table entries — a read-only
// view of the protocol's contact slab, valid until the next maintenance
// round or churn event.
func (s *Simulation) Contacts(u NodeID) []Contact { return s.Protocol().Table(u).Contacts() }

// Census summarizes the current topology (the paper's Table 1 metrics).
type Census struct {
	Links          int
	MeanDegree     float64
	Diameter       int
	AvgHops        float64
	LargestCompPct float64
	Clustering     float64
}

// TopologyCensus computes connectivity statistics of the current snapshot.
func (s *Simulation) TopologyCensus() Census {
	c := s.Network().Graph().ComputeCensus()
	return Census{
		Links:          c.Links,
		MeanDegree:     c.MeanDegree,
		Diameter:       c.Diameter,
		AvgHops:        c.AvgHops,
		LargestCompPct: 100 * c.LargestComponentFrac,
		Clustering:     c.MeanClustering,
	}
}

// RandomPair draws a uniformly random pair of distinct nodes from the
// largest connected component — the standard query workload. When the
// component holds fewer than two nodes (an empty or fully partitioned
// graph), both returns name the component's sole member (or 0), never an
// out-of-range index; use RandomPairs or Engine.RandomPair when the
// degenerate case must be detected.
func (s *Simulation) RandomPair(seed uint64) (src, dst NodeID) {
	p, _ := s.Engine.RandomPair(seed)
	return p.Src, p.Dst
}
