package sweep

import (
	"errors"
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
// independent of GOMAXPROCS and of every other cell. The cell's lookups run serially on one scheme
// worker; the engine's own fan-out inside a cell is its maintenance
// rounds, bit-identical to the serial loop by the engine's standing
// contract, so it composes freely with the sweep fan-out.
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
// registration, and resolves the query load on one worker. Draws come
// from the cell seed's pairSalt substream, so the offered (source,
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
		nc.Loss = *cfg.Loss
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
	sch, err := scheme.New(scheme.Canon(cfg.Scheme), scheme.Env{Net: e.Network(), Prot: e.Protocol(), Dir: dir, Seed: nc.Seed})
	if err != nil {
		return Metrics{}, err
	}
	sch.Setup()
	// The overhead rate: contact selection and upkeep plus scheme
	// registration (zero unless a rendezvous Setup ran) per node per
	// second.
	m := e.Messages()
	out := Metrics{Reach: e.MeanReachability(e.Config().Depth)}
	out.Overhead = float64(m.Selection+m.Backtrack+m.Validation+m.Recovery+m.Register) / float64(n)
	if er.Horizon > 0 {
		out.Overhead /= er.Horizon
	}
	if er.Queries == 0 {
		return out, nil
	}
	// Every sample is held, so the summaries are those of a sorted slice,
	// but a cell's footprint is bounded by its own query budget.
	msgs, hops, found := stats.NewWindow(er.Queries), stats.NewWindow(er.Queries), 0
	w := sch.Worker()
	for q := 0; q < er.Queries; q++ {
		src := scheme.NodeID(draws.Intn(n))
		id := resource.ID(draws.Intn(catalogue))
		if e.Network().Down(src) {
			continue // offered but unservable: a miss with no traffic
		}
		r := w.Discover(src, id)
		msgs.Add(float64(r.Messages))
		if r.Found {
			found++
			hops.Add(float64(r.PathHops))
		}
	}
	w.Flush()
	out.Success = 100 * float64(found) / float64(er.Queries)
	out.Msgs, out.Hops = msgs.Summary(), hops.Summary()
	return out, nil
}

// Check refuses a cell Run cannot run and fills cfg's protocol defaults
// in place, as Config.Validate does. Each refusal is a run that would
// report under a label it did not run: Config.Validate reads NoC 0 as "the
// default" (the no-contacts baseline is an experiments-harness rule, not
// an engine run), Advance ignores a negative or non-finite horizon, and a
// negative query count skips the query phase.
func (er EngineRunner) Check(cfg *CellConfig) error {
	switch {
	case er.Horizon < 0 || math.IsNaN(er.Horizon) || math.IsInf(er.Horizon, 0):
		return fmt.Errorf("sweep: Horizon = %g, want finite simulated seconds >= 0", er.Horizon)
	case er.Queries < 0:
		return fmt.Errorf("sweep: Queries = %d, want >= 0", er.Queries)
	case cfg.Proto.NoC == 0:
		return errors.New("sweep: NoC = 0 is not an engine run (the engine reads it as the default NoC); sweep NoC >= 1")
	}
	return cfg.Proto.Validate()
}
