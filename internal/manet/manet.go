// Package manet binds placement, mobility and radio range into the network
// substrate the discovery protocols run on: a time-indexed unit-disk
// connectivity snapshot plus categorized control-message accounting.
//
// # Simulation model
//
// The paper's NS-2 experiments deliberately ignore MAC/PHY effects, so the
// relevant physics reduce to: (1) which links exist at time t (unit disk
// over mobile positions), and (2) how many control-message transmissions
// each mechanism generates. Network models exactly that. Control packets
// are executed as synchronous hop walks at the instant they are sent —
// packet flight time (µs–ms) is negligible against mobility and validation
// periods (seconds).
//
// The topology snapshot is refreshed explicitly (RefreshAt); protocols
// observe link churn between refreshes exactly as a beacon-driven MANET
// stack observes it between hello intervals. Every snapshot comes from one
// incremental [topology.Builder], which reprocesses only the nodes that
// moved or flipped up/down state since the previous refresh.
//
// Message accounting is one [Counters] tally per Network (see
// recorder.go). Serial callers charge it directly through Recorder();
// parallel executors tally privately and flush into it with
// Counters.AddTo, serially, after their fan-out joins.
//
// # Node churn
//
// A Network may carry a [Churn] schedule (Config.Churn): at every refresh
// the schedule is sampled and down nodes are excluded from the topology
// snapshot — no links in either direction — while keeping their ids and
// positions. The flip lists (ChurnedDown, ChurnedUp) let the protocol
// layer expire contact state exactly once per transition. Schedules are
// stream-seeded per node, so churned runs are as reproducible as fixed
// populations.
package manet

import (
	"fmt"
	"math"

	"card/internal/geom"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Category classifies control messages for the paper's overhead metrics.
type Category int

// Control-message categories. The paper's figures aggregate them in
// different combinations: Fig. 4/12 count CSQBacktrack, Fig. 10/11 count
// Select+Backtrack+Validate+Recovery, Fig. 15 compares Query+Reply traffic
// across schemes with CARD's Select/Validate shown separately.
const (
	// CatDSDV has no sender: the neighborhood is the converged view, whose
	// update traffic the paper's figures leave out (DESIGN.md, "No DSDV").
	// It stays because category order is part of cardbench's state digest
	// (cmd/cardbench/digest.go names it), so removing it would renumber
	// every other category.
	CatDSDV      Category = iota // proactive neighborhood updates (always 0)
	CatCSQ                       // contact-selection forward hops
	CatBacktrack                 // contact-selection backtrack hops
	CatValidate                  // contact path-validation hops
	CatRecovery                  // local-recovery lookups and splices
	CatQuery                     // resource query hops (DSQ / flood / bordercast)
	CatReply                     // reply-path hops
	CatRegister                  // rendezvous registration hops and region floods
	CatRetry                     // link-layer retransmissions under a lossy link model
	numCategories
)

var categoryNames = [numCategories]string{
	"dsdv", "csq", "backtrack", "validate", "recovery", "query", "reply", "register", "retry",
}

func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Network is the substrate protocols run on. It is single-goroutine for
// mutation: each simulation run constructs and drives its own Network.
// Read-only access (graph queries, neighborhood lookups) is safe from
// multiple goroutines between refreshes, which is what the engine's batch
// query fan-out relies on.
type Network struct {
	model mobility.Model
	// lm is the link model the topology snapshots are built from; txRange
	// caches lm.Max() (the only range in the scalar model).
	lm      topology.LinkModel
	txRange float64

	// Loss process: every protocol-level hop draws delivery outcomes from
	// a pure hash of (lossSeed, epoch, u, v, attempt) — see loss.go.
	lossRate    float64
	lossRetries int
	lossSeed    uint64

	// Partition-and-heal schedule: while partPeriod > 0, the link model's
	// barrier is active whenever mod(t, partPeriod) falls within the last
	// partDuration seconds of the period.
	partPeriod, partDuration float64

	now     float64
	epoch   uint64
	pos     []geom.Point
	graph   *topology.Graph
	builder *topology.Builder

	// stepper is non-nil when the mobility model supports lazy stepping
	// (mobility.Stepper): refreshes then hand the builder only the moved
	// nodes instead of having it compare all N positions, and pos aliases
	// the model's internal slice (no per-refresh copy). dirty is that
	// hand-over list, the moved nodes plus the churn flips; it stays nil
	// without a stepper, which is how the builder is told to compare.
	stepper mobility.Stepper
	dirty   []NodeID

	// Churn state: nil churn means a fixed population. down is the
	// node-exclusion mask fed to the topology builders (the schedule's own
	// state, which flips rewrites); wentDown/cameUp
	// list the nodes that flipped at the most recent refresh and stay
	// valid until the next one; upCount follows the flips.
	churn            *Churn
	down             []bool
	wentDown, cameUp []NodeID
	upCount          int

	rec Counters
}

// Config gathers every substrate knob for NewNetwork. The zero value of
// each optional field disables it: nil Churn keeps the population up, a
// zero Loss delivers every transmission, a zero Partition never cuts the
// area, and a Link with only Uniform set gives the paper's undirected
// unit-disk graph.
type Config struct {
	// Link is the radio layer (see topology.LinkModel). Uniform must be
	// positive; Ranges (per-node, producing directed graphs) is optional.
	// Any BarrierX in it is overwritten when Partition is scheduled.
	Link topology.LinkModel
	// Churn is an optional node up/down schedule: at every refresh it is
	// sampled, down nodes are excluded from the topology snapshot (no
	// links in either direction), and the flip lists (ChurnedDown,
	// ChurnedUp) are refreshed for protocol-layer expiry. Nil keeps the
	// whole population up forever.
	Churn *Churn
	// Loss is the probabilistic delivery model (see LossConfig).
	Loss LossConfig
	// Partition schedules partition-and-heal events: with Period > 0 a
	// vertical barrier at mid-area cuts every crossing link whenever
	// mod(t, Period) >= Period-Duration, healing at the period wrap.
	Partition PartitionConfig
}

// PartitionConfig schedules recurring partition-and-heal events.
type PartitionConfig struct {
	// Period is the event cycle length in seconds (0 = no partitions);
	// Duration is how long the partition holds at the end of each cycle,
	// and must lie in (0, Period) when Period is set.
	Period, Duration float64
}

// NewNetwork creates a network over the mobility model with the full
// substrate configuration and takes the initial topology snapshot at t=0.
// Its message tally starts at zero. A malformed cfg.Link panics in
// topology.NewBuilder, the one place link models are validated.
func NewNetwork(model mobility.Model, cfg Config, rng *xrand.Rand) *Network {
	lm := cfg.Link
	if cfg.Churn != nil && cfg.Churn.N() != model.N() {
		panic(fmt.Sprintf("manet: churn schedule covers %d nodes, model has %d", cfg.Churn.N(), model.N()))
	}
	if !(cfg.Loss.Rate >= 0 && cfg.Loss.Rate < 1) { // also rejects NaN
		panic("manet: loss rate outside [0, 1)")
	}
	if cfg.Loss.Retries < 0 {
		panic("manet: negative loss retry budget")
	}
	if cfg.Partition.Period > 0 &&
		!(cfg.Partition.Duration > 0 && cfg.Partition.Duration < cfg.Partition.Period) {
		panic("manet: partition duration must lie in (0, period)")
	}
	if cfg.Partition.Period > 0 {
		lm.BarrierX = model.Area().W / 2
		lm.BarrierActive = false
	}
	n := &Network{
		model:        model,
		lm:           lm,
		txRange:      lm.Max(),
		builder:      topology.NewBuilder(model.N(), model.Area(), lm),
		partPeriod:   cfg.Partition.Period,
		partDuration: cfg.Partition.Duration,
		pos:          make([]geom.Point, model.N()),
		churn:        cfg.Churn,
		upCount:      model.N(),
	}
	if cfg.Loss.Rate > 0 {
		n.lossRate = cfg.Loss.Rate
		n.lossRetries = cfg.Loss.Retries
		n.lossSeed = cfg.Loss.Seed
		if n.lossSeed == 0 {
			// A derived constant substream of the run-owner generator:
			// pure read, no state advanced, same lineage discipline as
			// the per-(node, round) protocol streams.
			n.lossSeed = rng.StreamSeed(0x1055e5, 0)
		}
	}
	if cfg.Churn != nil {
		n.down = cfg.Churn.down
	}
	if st, ok := model.(mobility.Stepper); ok {
		n.stepper = st
		n.dirty = []NodeID{}
	}
	n.rebuild(0)
	return n
}

func (n *Network) rebuild(t float64) {
	if n.partPeriod > 0 {
		active := math.Mod(t, n.partPeriod) >= n.partPeriod-n.partDuration
		if active != n.lm.BarrierActive {
			n.lm.BarrierActive = active
			// The toggle flips links among stationary nodes, so the
			// builder falls back to a full rebuild (all changed).
			n.builder.SetBarrier(active)
		}
	}
	var moved []NodeID
	if n.stepper != nil {
		moved, n.pos = n.stepper.StepTo(t)
	} else {
		n.model.PositionsAt(t, n.pos)
	}
	if n.churn != nil {
		n.wentDown, n.cameUp = n.churn.flips(t, n.wentDown[:0], n.cameUp[:0])
		n.upCount += len(n.cameUp) - len(n.wentDown)
	}
	if n.stepper != nil {
		n.dirty = append(append(append(n.dirty[:0], moved...), n.wentDown...), n.cameUp...)
	}
	n.graph = n.builder.Update(n.pos, n.down, n.dirty)
	n.now = t
	n.epoch++
}

// RefreshAt re-samples node positions at time t and rebuilds the
// connectivity snapshot. t must be >= the previous refresh time.
func (n *Network) RefreshAt(t float64) {
	if t < n.now {
		panic(fmt.Sprintf("manet: refresh at %v before now %v", t, n.now))
	}
	n.rebuild(t)
}

// N returns the number of nodes.
func (n *Network) N() int { return n.model.N() }

// Now returns the time of the current snapshot.
func (n *Network) Now() float64 { return n.now }

// Epoch returns a counter that increments at every refresh; consumers cache
// derived state (neighborhood views) keyed by epoch.
func (n *Network) Epoch() uint64 { return n.epoch }

// Graph returns the current connectivity snapshot. The snapshot is valid
// until the next refresh; do not retain it across RefreshAt.
func (n *Network) Graph() *topology.Graph { return n.graph }

// TxRange returns the radio range in meters — the maximum over all nodes
// when the link model is heterogeneous (see Graph.TxRange).
func (n *Network) TxRange() float64 { return n.txRange }

// LinkModel returns the radio layer the network builds snapshots from
// (with the barrier state as of the current snapshot).
func (n *Network) LinkModel() topology.LinkModel { return n.lm }

// Directed reports whether the link model can produce asymmetric links.
func (n *Network) Directed() bool { return n.lm.Directed() }

// Position returns node u's position in the current snapshot. Valid until
// the next refresh; down nodes keep a position while holding no links.
func (n *Network) Position(u NodeID) geom.Point { return n.pos[u] }

// Area returns the deployment area the mobility model covers.
func (n *Network) Area() geom.Rect { return n.model.Area() }

// HasChurn reports whether the network runs a node up/down schedule.
func (n *Network) HasChurn() bool { return n.churn != nil }

// Down reports whether node u is churned out of the current snapshot.
// Down nodes keep their id and position but hold no links and must not
// originate protocol rounds.
func (n *Network) Down(u NodeID) bool { return n.down != nil && n.down[u] }

// UpCount returns the number of up nodes in the current snapshot.
func (n *Network) UpCount() int { return n.upCount }

// ChurnedDown lists the nodes that went down at the most recent refresh.
// The slice is valid until the next refresh; do not mutate or retain it.
func (n *Network) ChurnedDown() []NodeID { return n.wentDown }

// ChurnedUp lists the nodes readmitted at the most recent refresh. The
// slice is valid until the next refresh; do not mutate or retain it.
func (n *Network) ChurnedUp() []NodeID { return n.cameUp }

// AdjacencyChanged reports which nodes' adjacency lists differ from the
// previous snapshot after the most recent refresh. all=true means the
// refresh rebuilt everything (the first build, a partition toggle, or a
// mass-movement fallback) and every node must be treated as changed; the
// list is then empty. Otherwise the list is exact and duplicate-free (see
// topology.Builder.Changed) and valid until the next refresh. The engine's
// dirty-set maintenance is the intended consumer.
func (n *Network) AdjacencyChanged() (changed []NodeID, all bool) { return n.builder.Changed() }

// Adjacent reports whether u can currently transmit to v (the symmetric
// link predicate on scalar-range networks).
func (n *Network) Adjacent(u, v NodeID) bool { return n.graph.Adjacent(u, v) }

// Bidirectional reports whether u and v can currently exchange packets in
// both directions — what a protocol-level unicast hop requires, since the
// link-layer acknowledgement travels the reverse edge. Identical to
// Adjacent on scalar-range networks.
func (n *Network) Bidirectional(u, v NodeID) bool { return n.graph.Bidirectional(u, v) }

// Neighbors returns u's current one-hop neighbors (do not mutate).
func (n *Network) Neighbors(u NodeID) []NodeID { return n.graph.Neighbors(u) }

// Recorder returns the network's shared message tally. Only the serial
// driver loop may write to it; parallel executors flush into it after
// their join.
func (n *Network) Recorder() *Counters { return &n.rec }

// Totals returns a copy of the current per-category message tallies.
func (n *Network) Totals() Counters { return n.rec }
