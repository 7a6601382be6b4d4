// Package engine owns the simulation core: it binds a mobile network, its
// proactive neighborhood substrate and a CARD protocol instance, drives
// simulated time through the periodic maintenance rounds, and fans
// read-only batch queries across worker goroutines.
//
// The engine is the seam every scaling feature plugs into. Layering (see
// DESIGN.md):
//
//	geom / xrand / bitset / par      primitives
//	topology  mobility               structure, movement
//	manet                            substrate: snapshots + accounting
//	neighborhood  card  flood  ...   protocols (node-target primitives)
//	resource  scheme  workload       discovery schemes, sustained traffic
//	engine                           time-stepping, batching, presets
//	card (root)  experiments  cmd/   facades and harnesses
//
// # Time stepping
//
// CARD's one timed mechanism is periodic contact validation, so the clock
// is a round counter: Advance walks the maintenance boundaries the step
// crosses, in order. Boundary k fires at float64(k)·ValidatePeriod, derived
// from the integer counter, so repeated advancing can neither skip nor
// double-fire a round near floating-point representability edges (the
// failure mode of an int(now/period)+1 recurrence).
//
// # Batch queries
//
// BatchQuery exploits that CARD queries are pure reads of the protocol
// state between rounds: each worker gets its own card.Querier (private
// scratch, walk memo and message tallies, kept across calls), and tallies
// are flushed serially after the join — results and accounting are
// bit-identical to the sequential loop, at GOMAXPROCS-way speedup. A query
// reads no neighborhood view, so nothing is warmed first.
//
// # Parallel rounds
//
// The write-side hot loop — network-wide contact selection and
// maintenance — is sharded the same way (see maintain.go): one
// card.Maintainer per worker, per-node counter-based RNG streams keyed by
// (nodeID, round), serial flush in worker order. Node u's round touches
// only u's own table, so the fan-out is race-free and bit-identical to
// the serial id-order loop at any GOMAXPROCS, the fan-out's only width.
//
// # Scenarios and churn
//
// NetworkConfig selects among six mobility models (static, RWP, random
// walk, Gauss–Markov, RPGM groups, ns-2 trace replay) and may overlay a
// node churn schedule: at each refresh, nodes that went down are expired
// from every contact table (ExpireNodes) and readmitted nodes start cold
// (ResetNode), both on the serial engine loop between rounds — so the
// parallel paths stay bit-identical under churn (the churn equivalence
// test pins it). Ready-made workloads live in the preset table
// (presets.go); each carries a Doc line synthesized from its config.
//
// # Sustained workloads
//
// RunWorkload (workload.go) layers the open-loop query-traffic subsystem
// (internal/workload) on the same clock: Poisson arrivals and Zipf
// resource popularity generated as a pure function of the workload seed,
// executed in sharded per-tick batches between Advance steps — the
// per-query outcome stream is bit-identical serial vs sharded at any
// GOMAXPROCS, including under churn.
package engine

import (
	"fmt"
	"math"

	"card/internal/bitset"
	proto "card/internal/card"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/topology"
	"card/internal/xrand"
)

// NodeID identifies a node; ids are dense in [0, Nodes).
type NodeID = topology.NodeID

// MobilityKind selects the node-movement model of a simulation.
type MobilityKind int

const (
	// Static pins nodes at their initial uniform placement (sensor
	// networks, the paper's motivating static case).
	Static MobilityKind = iota
	// RandomWaypoint is the paper's mobility model: uniform waypoints,
	// uniform speed in [MinSpeed, MaxSpeed], optional pauses.
	RandomWaypoint
	// RandomWalk moves nodes at a constant 10 m/s with a random direction
	// change every 2 s, reflecting off the boundary.
	RandomWalk
	// GaussMarkov runs the Gauss–Markov model: autoregressive speed and
	// direction with tunable memory (GMAlpha), producing smooth
	// temporally-correlated trajectories.
	GaussMarkov
	// GroupMobility runs reference-point group mobility (RPGM): groups
	// share a random-waypoint leader trajectory with bounded per-member
	// jitter — the classic stressor for contact-based schemes.
	GroupMobility
	// TraceReplay replays an ns-2 setdest movement trace (TracePath) with
	// piecewise-linear interpolation; Nodes and the area come from the
	// trace unless overridden.
	TraceReplay
)

func (k MobilityKind) String() string {
	switch k {
	case Static:
		return "static"
	case RandomWaypoint:
		return "waypoint"
	case RandomWalk:
		return "walk"
	case GaussMarkov:
		return "gauss-markov"
	case GroupMobility:
		return "group"
	case TraceReplay:
		return "trace"
	default:
		return fmt.Sprintf("MobilityKind(%d)", int(k))
	}
}

// NetworkConfig describes the simulated network.
type NetworkConfig struct {
	// Nodes is the network size (>= 2). For TraceReplay it defaults to the
	// trace's node count and may not disagree with it.
	Nodes int
	// Width, Height are the deployment area in meters. For TraceReplay,
	// zero values take the trace's bounding box.
	Width, Height float64
	// TxRange is the radio range in meters (> 0).
	TxRange float64
	// Mobility selects the movement model (default Static).
	Mobility MobilityKind
	// MinSpeed, MaxSpeed bound RWP speeds in m/s (defaults 1 and 19).
	// Under GroupMobility they bound the group leader trajectory instead.
	MinSpeed, MaxSpeed float64
	// Pause is the RWP (or RPGM leader) dwell time at waypoints in seconds.
	Pause float64

	// GMMeanSpeed, GMAlpha, GMSpeedSigma parameterize GaussMarkov; zero
	// values take mobility.DefaultGM (10 m/s, α 0.75, σ_s 2 m/s; σ_θ is
	// always 0.4 rad and the epoch 1 s). A GMAlpha outside [0, 1] is
	// refused when the model is built.
	GMMeanSpeed, GMAlpha, GMSpeedSigma float64

	// Groups, GroupRadius, MemberSpeed parameterize GroupMobility: number
	// of groups (default Nodes/20, min 1), member offset bound in meters
	// (default 2·TxRange) and member jitter speed in m/s (default 2);
	// members jitter without dwelling.
	Groups                   int
	GroupRadius, MemberSpeed float64

	// TracePath names an ns-2 setdest movement trace for TraceReplay.
	TracePath string

	// ChurnMeanUp, ChurnMeanDown enable node churn when both are > 0:
	// every node alternates exponentially distributed up/down phases
	// (deterministic per Seed via per-node RNG streams). Down nodes hold
	// no links, run no protocol rounds, and are readmitted cold.
	ChurnMeanUp, ChurnMeanDown float64

	// RangeSpread, in [0, 1), gives every node its own radio range drawn
	// uniformly from [TxRange·(1−s), TxRange·(1+s)] — deterministic per
	// Seed from an id-ordered stream. Any positive spread makes links
	// asymmetric and the connectivity graph directed: protocol-level hops
	// then require bidirectional reachability (see topology.LinkModel).
	RangeSpread float64
	// Loss enables probabilistic delivery: each transmission of a
	// protocol-level hop is lost with this probability (in [0, 1)), and
	// LossRetries bounds per-hop retransmissions (default 3 when Loss is
	// set). Retransmissions surface as MessageCounts.Retry; a hop that
	// exhausts the budget behaves like a broken link and pays the
	// protocol's usual recovery cost. Deterministic per Seed and
	// order-independent (see manet/loss.go).
	Loss        float64
	LossRetries int
	// PartitionPeriod and PartitionDuration schedule partition-and-heal
	// events (both > 0 to enable): a vertical mid-area barrier cuts every
	// crossing link during the last PartitionDuration seconds of each
	// PartitionPeriod, then heals.
	PartitionPeriod, PartitionDuration float64

	// ViewCacheCap, when > 0, bounds the neighborhood view table to at
	// most this many materialized views, computed on demand and evicted
	// first-in first-out. Lookups stay bit-identical (views are pure
	// functions of the snapshot; see neighborhood.Table) but a
	// million-node field no longer pays O(N) view memory or O(N) per-round
	// warm sweeps — only the views rounds actually read exist. Sized well
	// below the working set it trades recompute time for memory; the 1M
	// preset uses it.
	ViewCacheCap int
	// DirtyMaintenance restricts maintenance and selection rounds to the
	// nodes whose outcome could differ from a no-op: nodes within
	// max(R, MaxContactDist) hops of an adjacency change since the last
	// round (so every possibly-broken stored path and stale neighborhood
	// view is revisited — see engine/dirty.go for the invariant), plus
	// every node whose table sits below NoC (covering churn comebacks,
	// expiry victims and walk retries). Clean nodes' tables are provably
	// bit-identical to what a full round would leave; the traffic their
	// trivially-successful validation walks would have generated is not
	// simulated, which is the point — at 100k mostly-pausing nodes a full
	// round is O(N·NoC·r) validation hops for nothing.
	//
	// Neighborhood views are retained across refreshes by the adjacency
	// diff the topology builder reports.
	DirtyMaintenance bool
	// Seed makes the run reproducible; equal seeds give identical runs.
	Seed uint64
}

// Validate checks the config and fills defaults in place. A TraceReplay
// config may leave Nodes and the area zero for New to read from the trace.
func (nc *NetworkConfig) Validate() error {
	if nc.Nodes < 2 && !(nc.Mobility == TraceReplay && nc.Nodes == 0) {
		return fmt.Errorf("engine: need at least 2 nodes, got %d", nc.Nodes)
	}
	// NaN passes every ordered comparison below (x <= 0 and x >= 1 are
	// both false for it) and +Inf passes the positivity ones, so the
	// floats those checks guard are screened first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Width", nc.Width}, {"Height", nc.Height}, {"TxRange", nc.TxRange},
		{"MinSpeed", nc.MinSpeed}, {"MaxSpeed", nc.MaxSpeed},
		{"GMMeanSpeed", nc.GMMeanSpeed}, {"GMAlpha", nc.GMAlpha}, {"GMSpeedSigma", nc.GMSpeedSigma},
		{"GroupRadius", nc.GroupRadius}, {"MemberSpeed", nc.MemberSpeed},
		{"ChurnMeanUp", nc.ChurnMeanUp}, {"ChurnMeanDown", nc.ChurnMeanDown},
		{"RangeSpread", nc.RangeSpread}, {"Loss", nc.Loss},
		{"PartitionPeriod", nc.PartitionPeriod}, {"PartitionDuration", nc.PartitionDuration},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("engine: %s = %g is not a finite number", f.name, f.v)
		}
	}
	if (nc.Width <= 0 || nc.Height <= 0) && !(nc.Mobility == TraceReplay && nc.Width == 0 && nc.Height == 0) {
		return fmt.Errorf("engine: non-positive area %gx%g", nc.Width, nc.Height)
	}
	if nc.TxRange <= 0 {
		return fmt.Errorf("engine: non-positive TxRange %g", nc.TxRange)
	}
	if nc.MinSpeed == 0 {
		nc.MinSpeed = 1
	}
	if nc.MaxSpeed == 0 {
		nc.MaxSpeed = 19
	}
	// Both means set, or both zero: a negative or one-sided pair is not "off".
	if nc.ChurnMeanUp != 0 || nc.ChurnMeanDown != 0 {
		if err := (manet.ChurnConfig{MeanUp: nc.ChurnMeanUp, MeanDown: nc.ChurnMeanDown}).Validate(); err != nil {
			return err
		}
	}
	if nc.ViewCacheCap < 0 {
		return fmt.Errorf("engine: negative ViewCacheCap %d", nc.ViewCacheCap)
	}
	if nc.RangeSpread < 0 || nc.RangeSpread >= 1 {
		return fmt.Errorf("engine: RangeSpread %g outside [0, 1)", nc.RangeSpread)
	}
	// The widest per-node range, TxRange·(1+RangeSpread), must itself be a
	// finite radius for the link model.
	if math.IsInf(nc.TxRange*(1+nc.RangeSpread), 0) {
		return fmt.Errorf("engine: TxRange %g with RangeSpread %g overflows the largest node range", nc.TxRange, nc.RangeSpread)
	}
	if nc.Loss < 0 || nc.Loss >= 1 {
		return fmt.Errorf("engine: Loss %g outside [0, 1)", nc.Loss)
	}
	if nc.LossRetries < 0 {
		return fmt.Errorf("engine: negative LossRetries %d", nc.LossRetries)
	}
	if nc.PartitionPeriod < 0 || nc.PartitionDuration < 0 || (nc.PartitionPeriod > 0) != (nc.PartitionDuration > 0) {
		return fmt.Errorf("engine: partitions need both PartitionPeriod and PartitionDuration > 0, or both 0 (got %g, %g)",
			nc.PartitionPeriod, nc.PartitionDuration)
	}
	if nc.PartitionPeriod > 0 && nc.PartitionDuration >= nc.PartitionPeriod {
		return fmt.Errorf("engine: PartitionDuration %g must be shorter than PartitionPeriod %g",
			nc.PartitionDuration, nc.PartitionPeriod)
	}
	return nil
}

// hasChurn reports whether the config enables node churn.
func (nc *NetworkConfig) hasChurn() bool { return nc.ChurnMeanUp > 0 && nc.ChurnMeanDown > 0 }

// gmConfig resolves the Gauss–Markov parameters against DefaultGM.
func (nc *NetworkConfig) gmConfig() mobility.GMConfig {
	cfg := mobility.DefaultGM()
	if nc.GMMeanSpeed > 0 {
		cfg.MeanSpeed = nc.GMMeanSpeed
	}
	if nc.GMAlpha != 0 {
		cfg.Alpha = nc.GMAlpha
	}
	if nc.GMSpeedSigma > 0 {
		cfg.SpeedSigma = nc.GMSpeedSigma
	}
	return cfg
}

// rpgmConfig resolves the group-mobility parameters.
func (nc *NetworkConfig) rpgmConfig() mobility.RPGMConfig {
	groups := nc.Groups
	if groups <= 0 {
		groups = nc.Nodes / 20
		if groups < 1 {
			groups = 1
		}
	}
	radius := nc.GroupRadius
	if radius <= 0 {
		radius = 2 * nc.TxRange
	}
	speed := nc.MemberSpeed
	if speed <= 0 {
		speed = 2
	}
	return mobility.RPGMConfig{
		Groups:      groups,
		GroupRadius: radius,
		Leader:      mobility.RWPConfig{MinSpeed: nc.MinSpeed, MaxSpeed: nc.MaxSpeed, Pause: nc.Pause},
		MemberSpeed: speed,
	}
}

// Engine binds network, substrate and protocol and owns simulated time.
//
// Mutation (Advance, SelectContacts, Maintain) is single-goroutine; run
// independent engines on separate goroutines for parameter sweeps.
// BatchQuery manages its own internal parallelism and must not overlap
// with mutation.
type Engine struct {
	net  *manet.Network
	prot *proto.Protocol
	nb   neighborhood.Provider
	cfg  proto.Config

	// now is the simulated time in seconds. rounds is the number of
	// maintenance boundaries fired; boundary k (1-based) fires at exactly
	// float64(k) * cfg.ValidatePeriod.
	now    float64
	rounds int64
	// maintPool caches the per-worker Maintainers across rounds (their
	// O(N) scratch would otherwise be reallocated every ValidatePeriod);
	// grown on demand in runRound.
	maintPool []*proto.Maintainer
	// roundSums is runRound's per-worker count of contacts added, grown
	// with maintPool so a round does not allocate it.
	roundSums []int
	// queryPool caches BatchQuery's per-worker Queriers the same way; their
	// walk memos stay warm from one batch to the next within a snapshot.
	queryPool []*proto.Querier

	// Dirty-set round state (NetworkConfig.DirtyMaintenance); see dirty.go.
	dirtyMode bool
	views     *neighborhood.Table // nb's table, for Retain; non-nil iff dirtyMode
	dirtyAcc  *bitset.Set         // nodes dirtied since the last maintenance round
	deficit   *bitset.Set         // nodes whose table sits below NoC (see dirty.go)
	roundSet  *bitset.Set         // scratch: dirtyAcc ∪ deficit for the round list
	dirtyAll  bool                // a full rebuild invalidated everything
	lastRound int                 // nodes processed by the most recent round
	// Multi-source BFS scratch for expanding adjacency diffs.
	dirtyStamp []uint64
	dirtyGen   uint64
	dirtyQueue []NodeID
	roundList  []NodeID
}

// New builds a network per nc and a CARD engine per cfg.
func New(nc NetworkConfig, cfg proto.Config) (*Engine, error) {
	var trace *mobility.Trace
	if nc.Mobility == TraceReplay {
		if nc.TracePath == "" {
			return nil, fmt.Errorf("engine: TraceReplay mobility needs a TracePath")
		}
		tr, err := mobility.LoadSetdestFile(nc.TracePath)
		if err != nil {
			return nil, err
		}
		trace = tr
		if nc.Nodes == 0 {
			nc.Nodes = tr.N()
		}
		if nc.Nodes != tr.N() {
			return nil, fmt.Errorf("engine: config says %d nodes but trace %s has %d",
				nc.Nodes, nc.TracePath, tr.N())
		}
		if nc.Width == 0 && nc.Height == 0 {
			b := tr.Bounds()
			nc.Width, nc.Height = b.W, b.H
		}
	}
	if err := nc.Validate(); err != nil {
		return nil, err
	}
	// Before anything sized by Nodes is allocated: a bad R or NoC on a
	// 10⁶-node preset should not cost the mobility and topology set-up.
	// Validation reads no RNG stream, so no draw is reordered.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	area := geom.Rect{W: nc.Width, H: nc.Height}
	rng := xrand.New(nc.Seed)
	var model mobility.Model
	var err error
	switch nc.Mobility {
	case Static:
		model = mobility.NewStatic(topology.UniformPositions(nc.Nodes, area, rng.Derive(0)), area)
	case RandomWaypoint:
		model, err = mobility.NewRandomWaypoint(nc.Nodes, area, mobility.RWPConfig{
			MinSpeed: nc.MinSpeed, MaxSpeed: nc.MaxSpeed, Pause: nc.Pause,
		}, rng.Derive(0))
	case RandomWalk:
		pts := topology.UniformPositions(nc.Nodes, area, rng.Derive(0))
		model, err = mobility.NewRandomWalk(pts, area, 10, 2, rng.Derive(4))
	case GaussMarkov:
		model, err = mobility.NewGaussMarkov(nc.Nodes, area, nc.gmConfig(), rng.Derive(0))
	case GroupMobility:
		model, err = mobility.NewRPGM(nc.Nodes, area, nc.rpgmConfig(), rng.Derive(0))
	case TraceReplay:
		model, err = mobility.NewTraceReplay(trace, area)
	default:
		return nil, fmt.Errorf("engine: unknown mobility kind %d", int(nc.Mobility))
	}
	if err != nil {
		return nil, err
	}
	var churn *manet.Churn
	if nc.hasChurn() {
		churn, err = manet.NewChurn(nc.Nodes, manet.ChurnConfig{
			MeanUp: nc.ChurnMeanUp, MeanDown: nc.ChurnMeanDown,
		}, rng.Derive(3))
		if err != nil {
			return nil, err
		}
	}
	lm := topology.LinkModel{Uniform: nc.TxRange}
	if nc.RangeSpread > 0 {
		// Per-node ranges from their own derived stream, drawn in id
		// order — stable against every other knob.
		rr := rng.Derive(5)
		ranges := make([]float64, nc.Nodes)
		for i := range ranges {
			ranges[i] = nc.TxRange * (1 + nc.RangeSpread*rr.Range(-1, 1))
		}
		lm.Ranges = ranges
	}
	net := manet.NewNetwork(model, manet.Config{
		Link:      lm,
		Churn:     churn,
		Loss:      manet.LossConfig{Rate: nc.Loss, Retries: nc.LossRetries},
		Partition: manet.PartitionConfig{Period: nc.PartitionPeriod, Duration: nc.PartitionDuration},
	}, rng.Derive(1))
	var nb neighborhood.Provider
	var views *neighborhood.Table
	if nc.ViewCacheCap > 0 {
		views = neighborhood.NewViewCache(net, cfg.R, nc.ViewCacheCap)
		nb = views
	} else {
		o := neighborhood.NewOracle(net, cfg.R)
		nb, views = o, &o.Table
	}
	p, err := proto.New(net, nb, cfg, rng.Derive(2))
	if err != nil {
		return nil, err
	}
	e := &Engine{net: net, prot: p, nb: nb, cfg: p.Config()}
	if nc.DirtyMaintenance {
		e.dirtyMode = true
		e.views = views
		e.dirtyAcc = bitset.New(nc.Nodes)
		e.deficit = bitset.New(nc.Nodes)
		e.deficit.Fill() // every table starts empty, hence below NoC
		e.roundSet = bitset.New(nc.Nodes)
		e.dirtyStamp = make([]uint64, nc.Nodes)
	}
	return e, nil
}

// refresh re-snapshots the network at time t and applies the consequences:
// churn flips expire protocol state. Runs serially (between rounds), so
// the expiry order — down flips in id order, then up flips — is
// deterministic.
func (e *Engine) refresh(t float64) {
	e.net.RefreshAt(t)
	if e.dirtyMode {
		e.noteTopologyChanges()
	}
	if e.net.HasChurn() {
		affected := e.prot.ExpireNodes(e.net.ChurnedDown())
		if e.dirtyMode {
			// Expiry only shrinks tables: every affected owner is now
			// below NoC or was already — deficit entries, never exits.
			for _, u := range affected {
				e.deficit.Add(int(u))
			}
		}
		for _, v := range e.net.ChurnedUp() {
			e.prot.ResetNode(v)
			if e.dirtyMode {
				e.deficit.Add(int(v)) // readmitted cold: empty table
			}
		}
	}
}

// Advance moves simulated time forward by dt seconds: node positions and
// the connectivity snapshot are refreshed, one maintenance round runs at
// every elapsed ValidatePeriod boundary (a boundary landing exactly on the
// target time fires). Each boundary refreshes the snapshot at its own time
// before its round runs; the neighborhood views follow each snapshot with
// no traffic of their own (the converged view). The schedule is drift-free:
// boundaries are indexed by an integer round counter, so none is skipped
// or fired twice however the Advance calls are sliced. dt <= 0, NaN or
// +Inf is a no-op: an unbounded step has no last round to stop at.
func (e *Engine) Advance(dt float64) {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return
	}
	target := e.now + dt
	for {
		// Boundaries come from the integer counter, never from the float
		// clock, so boundary k is always exactly float64(k)·period.
		next := float64(e.rounds+1) * e.cfg.ValidatePeriod
		if next > target {
			break
		}
		e.now = next
		e.refresh(next)
		e.maintainRound(next)
		e.rounds++
	}
	e.now = target
	if target > e.net.Now() {
		e.refresh(target)
	}
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rounds returns how many maintenance rounds have fired so far.
func (e *Engine) Rounds() int64 { return e.rounds }

// Nodes returns the network size (up or down; see UpNodes).
func (e *Engine) Nodes() int { return e.net.N() }

// UpNodes returns how many nodes are up in the current snapshot (equal to
// Nodes without churn).
func (e *Engine) UpNodes() int { return e.net.UpCount() }

// Config returns the protocol configuration with defaults filled.
func (e *Engine) Config() proto.Config { return e.cfg }

// Network exposes the underlying substrate.
func (e *Engine) Network() *manet.Network { return e.net }

// Protocol exposes the underlying CARD protocol instance for advanced use
// (per-node tables, reachability).
func (e *Engine) Protocol() *proto.Protocol { return e.prot }

// Neighborhood returns the proactive substrate.
func (e *Engine) Neighborhood() neighborhood.Provider { return e.nb }

// SelectContacts runs initial contact selection for every node, sharded
// across up to GOMAXPROCS maintenance workers; results are bit-identical
// to the serial id-order loop.
func (e *Engine) SelectContacts() int { return e.selectRound(e.Now()) }

// Maintain forces one maintenance round for every node now (outside the
// periodic schedule; the boundary counter is not advanced). Like the
// scheduled rounds, it is sharded across the maintenance worker pool.
func (e *Engine) Maintain() { e.maintainRound(e.Now()) }

// Query runs a CARD destination search from src for target on BatchQuery's
// first Querier and flushes its tallies to the recorder at once.
func (e *Engine) Query(src, target NodeID) proto.QueryResult {
	q := e.querier(0)
	res := q.Query(src, target)
	q.Flush()
	return res
}

// Reachability returns the percentage of live network nodes u can reach
// with a depth-D contact search. Under churn the denominator is the up
// population (a down node is not discoverable by any mechanism) and a
// down u reports 0; without churn this is the plain over-N percentage.
func (e *Engine) Reachability(u NodeID, depth int) float64 {
	return e.prot.Reachability(u, depth)
}

// MeanReachability averages Reachability over the up nodes (all nodes
// when the scenario runs no churn).
func (e *Engine) MeanReachability(depth int) float64 {
	return e.prot.MeanReachability(depth)
}

// Stats returns protocol-level statistics.
func (e *Engine) Stats() proto.Stats { return e.prot.Stats() }

// MessageCounts reports the cumulative control-message tallies by purpose.
type MessageCounts struct {
	Selection    int64 // CSQ forward + reply hops
	Backtrack    int64 // CSQ backtracking hops
	Validation   int64 // contact path-validation hops
	Recovery     int64 // local-recovery splice hops
	Query        int64 // discovery query hops (CARD, flooding, bordercast)
	Reply        int64 // success-reply hops
	Register     int64 // rendezvous registration hops and region floods
	Retry        int64 // link-layer retransmissions under a lossy link model
	TotalPerNode float64
}

// Messages returns the engine's control-message accounting.
func (e *Engine) Messages() MessageCounts {
	k := e.net.Totals()
	return MessageCounts{
		Selection:    k.Get(manet.CatCSQ),
		Backtrack:    k.Get(manet.CatBacktrack),
		Validation:   k.Get(manet.CatValidate),
		Recovery:     k.Get(manet.CatRecovery),
		Query:        k.Get(manet.CatQuery),
		Reply:        k.Get(manet.CatReply),
		Register:     k.Get(manet.CatRegister),
		Retry:        k.Get(manet.CatRetry),
		TotalPerNode: float64(k.Total()) / float64(e.net.N()),
	}
}

// QueryVia resolves one node-target query through the named discovery
// scheme ("" = card) on the current topology: target becomes the single
// holder of a one-resource directory and the query runs through a
// scheme.Worker, so it is charged by exactly the rules sustained workloads
// and sweeps use — including the self-held rule: src == target is answered
// locally at zero messages under every scheme. An unknown scheme name or a
// node id outside [0, Nodes()) is an error. The scheme is built per call
// (rendezvous pays its registration each time): a comparison tool for a
// handful of pairs; bulk traffic belongs to RunWorkload.
func (e *Engine) QueryVia(name string, src, target NodeID) (resource.Result, error) {
	n := e.net.N()
	if src < 0 || int(src) >= n || target < 0 || int(target) >= n {
		return resource.Result{}, fmt.Errorf("engine: QueryVia(%d, %d): node id outside [0, %d)", src, target, n)
	}
	dir := resource.NewDirectory(n)
	dir.Place(0, target)
	sch, err := scheme.New(name, scheme.Env{Net: e.net, Prot: e.prot, Dir: dir})
	if err != nil {
		return resource.Result{}, err
	}
	sch.Setup()
	w := sch.Worker()
	r := w.Discover(src, 0)
	w.Flush()
	return r, nil
}

// RandomPair draws a uniformly random (src, dst) pair of distinct nodes
// from the largest connected component — the standard query workload. ok
// is false when the component holds fewer than two nodes; src and dst are
// then both the component's sole member (or 0 on an empty graph), never an
// out-of-range index.
func (e *Engine) RandomPair(seed uint64) (p Pair, ok bool) {
	comp := e.net.Graph().LargestComponent()
	rng := xrand.New(seed)
	return drawPair(comp, rng)
}

// RandomPairs draws k independent pairs from the largest component with
// one derived random stream (deterministic in seed). Pairs whose component
// is degenerate are skipped, so the result may be shorter than k.
func (e *Engine) RandomPairs(k int, seed uint64) []Pair {
	if k <= 0 {
		return nil
	}
	comp := e.net.Graph().LargestComponent()
	rng := xrand.New(seed)
	pairs := make([]Pair, 0, k)
	for i := 0; i < k; i++ {
		p, ok := drawPair(comp, rng)
		if !ok {
			break // degenerate component: no distinct pairs exist
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// drawPair picks two distinct members of comp without rejection sampling:
// the second index is drawn from the remaining len-1 slots.
func drawPair(comp []NodeID, rng *xrand.Rand) (Pair, bool) {
	switch len(comp) {
	case 0:
		return Pair{}, false
	case 1:
		return Pair{Src: comp[0], Dst: comp[0]}, false
	}
	si := rng.Intn(len(comp))
	di := rng.Intn(len(comp) - 1)
	if di >= si {
		di++
	}
	return Pair{Src: comp[si], Dst: comp[di]}, true
}
