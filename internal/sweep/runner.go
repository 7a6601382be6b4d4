package sweep

import (
	"fmt"
	"math"

	"card/internal/engine"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/stats"
	"card/internal/xrand"
)

const (
	// pairSalt decorrelates a cell's placement and query draws from its
	// engine run stream.
	pairSalt = 0x517cc1b727220a95
	// catalogue is the resource count of every cell: ids 0..63, one
	// holder each.
	catalogue = 64
	// MaxRounds bounds the maintenance rounds one cell, or a whole grid
	// summed over its cells, may ask for: far above any preset's horizon,
	// far below a typo such as Horizon 1e300, which would never return.
	MaxRounds = 10_000_000
)

// EngineRunner is the default cell runner: each cell is one isolated
// engine run — build the network, select contacts, advance the horizon
// under scheduled maintenance, then measure reachability and resolve a
// query load over the resource catalogue through the cell's discovery
// scheme. A cell Check refuses is an error, not a run.
//
// Determinism: the cell's network seed is the counter-based substream
// (pointIdx, seed) of Net.Seed, the sweep's root seed (xrand.StreamSeed),
// so every cell's randomness is a pure function of its grid coordinates —
// independent of GOMAXPROCS and of every other cell. The cell's lookups
// run through scheme.Batch at width 1, serially on one scheme worker; the
// engine's own fan-out inside a cell is its maintenance rounds,
// bit-identical to the serial loop by the engine's standing contract, so
// it composes freely with the sweep fan-out.
type EngineRunner struct {
	// Net is the scenario every cell instantiates. Its Seed is the
	// sweep's root seed: each cell runs the network seed derived from it.
	Net engine.NetworkConfig
	// Horizon is the simulated seconds each cell advances before
	// measuring (finite, >= 0; 0 = static: measure right after initial
	// selection).
	Horizon float64
	// Queries is the query-load size per cell (>= 0; 0 = skip the query
	// phase, Success/Msgs/Hops stay zero).
	Queries int
}

// Run implements Runner: one engine run, then the cell's scheme (card
// when CellConfig.Scheme is empty) places the catalogue, runs its
// registration, and resolves the query load in one width-1 batch. Draws
// come from the cell seed's pairSalt substream, so the offered (source,
// resource) sequence is identical for every scheme at the same cell
// coordinates — the cross-scheme fairness the sustained workload pins,
// reproduced at sweep-cell scale.
func (er EngineRunner) Run(cfg CellConfig, _ []float64, pointIdx int, seed uint64) (Metrics, error) {
	if err := er.Check(&cfg); err != nil {
		return Metrics{}, err
	}
	nc := er.Net
	nc.Seed = xrand.New(er.Net.Seed).StreamSeed(uint64(pointIdx), seed)
	if cfg.Loss != nil {
		nc.SetLoss(*cfg.Loss)
	}
	if cfg.RangeSpread != nil {
		nc.RangeSpread = *cfg.RangeSpread
	}
	e, err := engine.New(nc, cfg.Proto)
	if err != nil {
		return Metrics{}, err
	}
	e.SelectContacts()
	e.Advance(er.Horizon)

	root := xrand.New(nc.Seed ^ pairSalt)
	place, draws := root.Derive(0), root.Derive(1)
	n := e.Nodes()
	dir := resource.NewDirectory(n)
	for id := 0; id < catalogue; id++ {
		dir.PlaceReplicas(resource.ID(id), 1, place)
	}
	net := e.Network()
	b, err := scheme.NewBatch(cfg.Scheme, scheme.Env{Net: net, Prot: e.Protocol(), Dir: dir, Seed: nc.Seed}, 1)
	if err != nil {
		return Metrics{}, err
	}
	// The overhead rate: MessageCounts.Overhead (registration is zero
	// unless a rendezvous Setup ran) per node per second.
	out := Metrics{Reach: e.MeanReachability(e.Config().Depth)}
	out.Overhead = float64(e.Messages().Overhead()) / float64(n)
	if er.Horizon > 0 {
		out.Overhead /= er.Horizon
	}
	if er.Queries == 0 {
		return out, nil
	}
	srcs, ids := make([]scheme.NodeID, er.Queries), make([]resource.ID, er.Queries)
	for q := range srcs {
		srcs[q], ids[q] = scheme.NodeID(draws.Intn(n)), resource.ID(draws.Intn(catalogue))
	}
	res := make([]resource.Result, er.Queries)
	b.Run(res, func(i int) (scheme.NodeID, resource.ID) { return srcs[i], ids[i] })
	// Every sample is held, so the summaries are those of a sorted slice,
	// but a cell's footprint is bounded by its own query budget.
	msgs, hops, found := stats.NewWindow(er.Queries), stats.NewWindow(er.Queries), 0
	for i, r := range res {
		if net.Down(srcs[i]) {
			continue // offered but unservable: a miss with no traffic
		}
		msgs.Add(float64(r.Messages))
		if r.Found {
			found++
			hops.Add(float64(r.PathHops))
		}
	}
	out.Success = 100 * float64(found) / float64(er.Queries)
	out.Msgs, out.Hops = msgs.Summary(), hops.Summary()
	return out, nil
}

// Check refuses a cell Run cannot run and fills cfg's protocol defaults
// in place, as Config.Validate does. Each refusal is a run that would
// report under a label it did not run (Advance ignores a negative or
// non-finite horizon, and a negative query count skips the query phase),
// one past MaxRounds, or one engine.New would refuse after the plan
// (engine.CheckTables).
func (er EngineRunner) Check(cfg *CellConfig) error {
	switch {
	case er.Horizon < 0 || math.IsNaN(er.Horizon) || math.IsInf(er.Horizon, 0):
		return fmt.Errorf("sweep: Horizon = %g, want finite simulated seconds >= 0", er.Horizon)
	case er.Queries < 0:
		return fmt.Errorf("sweep: Queries = %d, want >= 0", er.Queries)
	}
	if err := cfg.Proto.Validate(); err != nil {
		return err
	}
	if rounds := math.Floor(er.Horizon / cfg.Proto.ValidatePeriod); rounds > MaxRounds {
		return fmt.Errorf("sweep: Horizon %gs at ValidatePeriod %gs runs %g maintenance rounds per cell, max %d",
			er.Horizon, cfg.Proto.ValidatePeriod, rounds, MaxRounds)
	}
	return engine.CheckTables(er.Net.Nodes, cfg.Proto)
}
