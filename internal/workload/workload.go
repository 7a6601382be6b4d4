// Package workload drives a CARD engine with sustained, open-loop query
// traffic — the serving-scale counterpart to the one-shot query batches
// the paper evaluates with.
//
// # Traffic model
//
// Requests arrive as a Poisson process at Config.QPS queries per simulated
// second (exponential inter-arrival gaps via xrand.ExpFloat64). Each
// request names a resource drawn from a Zipf-skewed popularity
// distribution over a fixed catalogue (xrand.Zipf; rank 0 hottest) and
// originates at a uniformly random node. The stream is *open loop*: the
// offered load never adapts to outcomes, matching how the Rendezvous
// Regions and mobility-assisted-discovery evaluations (PAPERS.md) model
// request streams.
//
// # Execution and determinism
//
// Time advances in ticks (Config.Tick): arrivals falling inside a tick
// execute together against the snapshot at the tick's end, after the
// driver has run mobility, churn expiry and any maintenance rounds
// scheduled inside the tick. The whole request sequence — arrival times,
// sources, resources, holder placements — is generated from Config.Seed
// with fixed draw counts per query, so it is a pure function of the
// configuration: every scheme and GOMAXPROCS sees the identical offered
// load.
//
// Discovery is pluggable: Config.Scheme names any registered
// DiscoveryScheme (card, flood, ring, bordercast, rendezvous, ...), and
// every scheme's ticks shard across workers with the engine's batch-query
// recipe — one scheme.Worker with private tallies per OS worker, tallies
// flushed serially in worker order after the join. That makes the per-query
// outcome stream and the recorder totals bit-identical between serial and
// sharded execution at any GOMAXPROCS, for every scheme — the same
// equivalence contract the maintenance rounds honor, pinned by
// TestWorkloadParallelEquivalence in the engine package and by the
// cross-scheme conformance suite in internal/scheme. Scheme maintenance
// (rendezvous re-registration) runs serially at each tick boundary, after
// the driver advances and before the tick's queries.
package workload

import (
	"fmt"
	"math"

	"card/internal/card"
	"card/internal/manet"
	"card/internal/par"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/stats"
	"card/internal/topology"
	"card/internal/xrand"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Scheme names the discovery mechanism the traffic exercises — any name
// registered with the scheme package ("" means the default, card). See
// scheme.Names for the full set.
type Scheme = string

const (
	// CARD runs contact-based discovery through the contact architecture.
	CARD Scheme = "card"
	// Flood runs the duplicate-suppressed flooding baseline.
	Flood Scheme = "flood"
	// ExpandingRing runs the TTL-doubling anycast baseline.
	ExpandingRing Scheme = "ring"
	// Bordercast runs ZRP bordercasting over the neighborhood substrate.
	Bordercast Scheme = "bordercast"
	// Rendezvous runs Rendezvous Regions (geographic key hashing).
	Rendezvous Scheme = "rendezvous"
)

// Config parameterizes one sustained-traffic run.
type Config struct {
	// QPS is the mean arrival rate in queries per simulated second (> 0).
	QPS float64
	// Duration is how long to keep the stream open, in simulated seconds
	// (> 0), starting at the driver's current time.
	Duration float64
	// Tick is the batching granularity in seconds: arrivals within one
	// tick execute together at its end, after the driver has advanced
	// mobility and maintenance through it (default 0.5).
	Tick float64
	// Resources is the catalogue size (default 128).
	Resources int
	// Replicas is the number of holders placed per resource (default 1).
	Replicas int
	// ZipfS is the popularity skew: request popularity follows
	// P(rank k) ∝ 1/(k+1)^ZipfS. 0 (the default) is uniform.
	ZipfS float64
	// Window is the sliding-window size for the trailing quantiles
	// (default 256 queries).
	Window int
	// Scheme names the discovery mechanism (default "card"; any name
	// registered with the scheme package is valid).
	Scheme Scheme
	// Seed drives the placement and arrival streams. The request sequence
	// is a pure function of (Seed, QPS, Duration, Tick, Resources,
	// Replicas, ZipfS) — it never reads simulation state — so runs that
	// share these fields offer the identical load to every scheme.
	Seed uint64
	// KeepOutcomes retains the full per-query outcome stream in the
	// report (the equivalence tests pin it); leave false for long runs.
	KeepOutcomes bool
}

// maxQueries (QPS·Duration) and maxTicks (Duration/Tick) bound the work
// one Run may ask for: far above any preset's stream, far below a typo.
const maxQueries, maxTicks = 10_000_000, 1_000_000

// Validate checks the configuration and fills defaults in place.
func (c *Config) Validate() error {
	// Every comparison is false for NaN, and an infinite rate or horizon
	// fails the work ceilings below.
	if !(c.QPS > 0) {
		return fmt.Errorf("workload: need QPS > 0, got %g", c.QPS)
	}
	if !(c.Duration > 0) {
		return fmt.Errorf("workload: need Duration > 0, got %g", c.Duration)
	}
	if !(c.Tick >= 0) {
		return fmt.Errorf("workload: need Tick >= 0, got %g", c.Tick)
	}
	if c.Tick == 0 {
		c.Tick = 0.5
	}
	if q := c.QPS * c.Duration; q > maxQueries {
		return fmt.Errorf("workload: QPS %g x Duration %g s offers %g queries, max %d", c.QPS, c.Duration, q, maxQueries)
	}
	if t := c.Duration / c.Tick; t > maxTicks {
		return fmt.Errorf("workload: Duration %g s / Tick %g s is %g ticks, max %d", c.Duration, c.Tick, t, maxTicks)
	}
	if c.Resources < 0 || c.Replicas < 0 || c.Window < 0 {
		return fmt.Errorf("workload: negative Resources/Replicas/Window")
	}
	if c.Resources == 0 {
		c.Resources = 128
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if !(c.ZipfS >= 0) || math.IsInf(c.ZipfS, 1) {
		return fmt.Errorf("workload: need a finite ZipfS >= 0, got %g", c.ZipfS)
	}
	if c.Window == 0 {
		c.Window = 256
	}
	if !scheme.Known(c.Scheme) {
		return fmt.Errorf("workload: unknown scheme %q (have %v)", c.Scheme, scheme.Names())
	}
	c.Scheme = scheme.Canon(c.Scheme)
	return nil
}

// Query is one offered request of the open-loop stream.
type Query struct {
	// T is the arrival time in simulated seconds.
	T float64
	// Src is the requesting node.
	Src NodeID
	// Resource is the requested resource (its Zipf popularity rank).
	Resource resource.ID
}

// Outcome is one executed query with its result.
type Outcome struct {
	Query
	// SrcDown marks arrivals whose source was churned down at execution
	// time: the request is counted as offered load and as a failure, but
	// no discovery runs and no messages are charged.
	SrcDown bool
	// Found reports whether some holder was located.
	Found bool
	// Messages is the control traffic of the discovery.
	Messages int64
	// Hops is the route length to the holder, or -1.
	Hops int
}

// Report aggregates one sustained-traffic run.
type Report struct {
	Scheme Scheme
	// Config is the effective configuration of the run, with defaults
	// filled — what consumers should display, since zero fields in the
	// requested config resolve here.
	Config Config
	// Queries is the total offered load (arrivals, including SrcDown).
	Queries int
	// Found counts successful discoveries.
	Found int
	// SrcDown counts arrivals dropped because the source was churned down.
	SrcDown int
	// Horizon is the simulated time the stream covered, in seconds.
	Horizon float64
	// SuccessPct is 100·Found/Queries (0 when no queries arrived).
	SuccessPct float64
	// Messages summarizes per-query control messages over the executed
	// stream (SrcDown arrivals excluded: they sent nothing). N, Mean and
	// Max are exact over the whole stream (Welford, O(1) memory); the
	// quantiles are over the trailing Config.Window samples — the run
	// never retains the full per-query record, so a 100k-node,
	// million-query stream costs O(Window) memory, not O(queries).
	Messages stats.Summary
	// Hops summarizes route lengths over successful queries, with the
	// same streamed semantics as Messages (exact N/Mean/Max, trailing
	// quantiles).
	Hops stats.Summary
	// WindowMessages / WindowSuccessPct are the trailing sliding-window
	// view at stream end: the last Config.Window executed (respectively
	// offered) queries.
	WindowMessages   stats.Summary
	WindowSuccessPct float64
	// Outcomes is the full per-query stream when Config.KeepOutcomes.
	Outcomes []Outcome
}

// Driver is the engine-shaped surface the workload drives. engine.Engine
// implements it; the interface keeps this package below the engine layer
// (the engine wraps Run as Engine.RunWorkload).
type Driver interface {
	// Advance moves simulated time forward dt seconds, running scheduled
	// maintenance (and churn expiry) on the way.
	Advance(dt float64)
	// Now returns the current simulation time.
	Now() float64
	// Nodes returns the network size.
	Nodes() int
	// Protocol exposes the CARD protocol instance queries run against.
	Protocol() *card.Protocol
	// Network exposes the substrate (topology, churn mask, recorder).
	Network() *manet.Network
}

// Run drives d with cfg's traffic and reports the outcome stream. The
// directory of resource holders is placed from cfg.Seed before traffic
// starts; the driver's clock advances by cfg.Duration.
func Run(d Driver, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := d.Nodes()
	root := xrand.New(cfg.Seed)
	// Stream 0 places holders; stream 1 generates arrivals. Each query
	// consumes exactly three draws (gap, source, resource) so the sequence
	// never shifts with outcomes or simulation state.
	place := root.Derive(0)
	arrivals := root.Derive(1)
	dir := resource.NewDirectory(n)
	for id := 0; id < cfg.Resources; id++ {
		dir.PlaceReplicas(resource.ID(id), cfg.Replicas, place)
	}
	zipf := xrand.NewZipf(cfg.Resources, cfg.ZipfS)

	rep := &Report{Scheme: cfg.Scheme, Config: cfg, Horizon: cfg.Duration}
	// Streamed aggregation: Welford accumulators carry the exact
	// whole-stream N/Mean/Max, the windows carry the trailing samples the
	// quantiles are read from. Nothing here grows with the query count.
	winMsgs := stats.NewWindow(cfg.Window)
	winHops := stats.NewWindow(cfg.Window)
	winOK := stats.NewWindow(cfg.Window)
	var aggMsgs, aggHops stats.Welford

	prot, net := d.Protocol(), d.Network()
	sch, err := scheme.New(cfg.Scheme, scheme.Env{Net: net, Prot: prot, Dir: dir, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// One-time scheme setup (rendezvous registration floods) accounts on
	// the shared recorder before the stream opens.
	sch.Setup()
	workers := make([]scheme.Worker, par.Limit())

	start := d.Now()
	end := start + cfg.Duration
	next := start + arrivals.ExpFloat64()/cfg.QPS
	var batch []Query
	var outs []Outcome
	for now := start; now < end; {
		tickEnd := now + cfg.Tick
		if tickEnd > end {
			tickEnd = end
		}
		batch = batch[:0]
		for next <= tickEnd {
			batch = append(batch, Query{
				T:        next,
				Src:      NodeID(arrivals.Intn(n)),
				Resource: resource.ID(zipf.Draw(arrivals)),
			})
			next += arrivals.ExpFloat64() / cfg.QPS
		}
		// Mobility, topology refresh, churn expiry and every maintenance
		// boundary inside the tick run before the tick's queries: queries
		// observe the freshest snapshot, exactly like the one-shot batches.
		d.Advance(tickEnd - d.Now())
		// Scheme maintenance (rendezvous re-registration after mobility or
		// churn) runs serially on the fresh snapshot, before the queries.
		sch.Maintain(d.Now())
		if cap(outs) < len(batch) {
			outs = make([]Outcome, len(batch))
		}
		outs = outs[:len(batch)]
		runTick(net, sch, workers, batch, outs)
		for _, o := range outs {
			rep.Queries++
			ok := 0.0
			if o.Found {
				rep.Found++
				ok = 1
				aggHops.Add(float64(o.Hops))
				winHops.Add(float64(o.Hops))
			}
			if o.SrcDown {
				rep.SrcDown++
			} else {
				aggMsgs.Add(float64(o.Messages))
				winMsgs.Add(float64(o.Messages))
			}
			winOK.Add(ok)
			if cfg.KeepOutcomes {
				rep.Outcomes = append(rep.Outcomes, o)
			}
		}
		now = tickEnd
	}
	if rep.Queries > 0 {
		rep.SuccessPct = 100 * float64(rep.Found) / float64(rep.Queries)
	}
	rep.Messages = streamSummary(&aggMsgs, winMsgs)
	rep.Hops = streamSummary(&aggHops, winHops)
	rep.WindowMessages = winMsgs.Summary()
	if winOK.Len() > 0 {
		rep.WindowSuccessPct = 100 * winOK.Mean()
	}
	return rep, nil
}

// streamSummary combines a whole-stream Welford accumulator with the
// trailing window: exact N/Mean/Max, windowed P50/P95/P99 (see the
// Report.Messages doc). The quantiles stay monotone against the exact
// Max — the window is a subset of the stream, so its order statistics
// cannot exceed the stream maximum.
func streamSummary(agg *stats.Welford, win *stats.Window) stats.Summary {
	if agg.N() == 0 {
		return stats.Summary{}
	}
	w := win.Summary()
	return stats.Summary{
		N:    agg.N(),
		Mean: agg.Mean(),
		P50:  w.P50,
		P95:  w.P95,
		P99:  w.P99,
		Max:  agg.Max(),
	}
}

// runTick executes one tick's arrivals against the current snapshot,
// filling outs indexed like batch. Every scheme shards with the
// batch-query recipe: fan the batch across per-worker scheme.Workers with
// private tallies, then flush serially after the join. Nothing is warmed:
// the few views a discovery reads are get-or-compute from any worker.
func runTick(net *manet.Network, sch scheme.DiscoveryScheme,
	workers []scheme.Worker, batch []Query, outs []Outcome) {
	if len(batch) == 0 {
		return
	}
	par.WorkersN(len(workers), len(batch), func(worker, i int) {
		q := batch[i]
		if net.Down(q.Src) {
			outs[i] = downOutcome(q)
			return
		}
		sw := workers[worker]
		if sw == nil {
			sw = sch.Worker()
			workers[worker] = sw
		}
		r := sw.Discover(q.Src, q.Resource)
		outs[i] = Outcome{Query: q, Found: r.Found, Messages: r.Messages, Hops: r.PathHops}
	})
	// Serial flush after the join: the shared recorder sees one
	// deterministic sum per category, whatever the interleaving was.
	for _, sw := range workers {
		if sw != nil {
			sw.Flush()
		}
	}
}

func downOutcome(q Query) Outcome {
	return Outcome{Query: q, SrcDown: true, Hops: -1}
}
