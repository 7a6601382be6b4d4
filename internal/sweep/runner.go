package sweep

import (
	"errors"

	"card/internal/engine"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/stats"
	"card/internal/xrand"
)

// pairSalt decorrelates the query-pair stream from the engine run stream.
const pairSalt = 0x517cc1b727220a95

// EngineRunner is the default cell runner: each cell is one isolated
// engine run — build the network, select contacts, advance the horizon
// under scheduled maintenance, then measure reachability and a batched
// query load. A cell Check refuses is an error, not a run.
//
// Determinism: the cell's network seed is the counter-based substream
// (pointIdx, seed) of Seed (xrand.StreamSeed), so every cell's randomness
// is a pure function of its grid coordinates — independent of GOMAXPROCS
// and of every other cell. The engine's own internal parallelism
// (maintenance rounds, batch queries) is bit-identical to its serial
// loops by the engine's standing contract, so it composes freely with the
// sweep fan-out.
type EngineRunner struct {
	// Net is the scenario every cell instantiates (the cell seed
	// overrides Net.Seed).
	Net engine.NetworkConfig
	// Horizon is the simulated seconds each cell advances before
	// measuring (0 = static: measure right after initial selection).
	Horizon float64
	// Queries is the batched query-load size per cell (0 = skip the
	// query phase; Success/Msgs/Hops stay zero).
	Queries int
	// Resources and Replicas shape the catalogue cells with a named
	// discovery scheme place before querying (defaults 64 and 1). Cells
	// with the empty scheme run the legacy node-discovery batch instead
	// and ignore both.
	Resources int
	Replicas  int
	// Seed is the sweep's root seed; cell streams derive from it.
	Seed uint64
}

// Run implements Runner. A cell with a named discovery scheme resolves a
// replicated resource catalogue through that scheme (the scheme axis
// path); a cell with the empty scheme runs the legacy CARD node-discovery
// batch, bit-identical to pre-scheme sweeps.
func (er EngineRunner) Run(cfg CellConfig, _ []float64, pointIdx int, seed uint64) (Metrics, error) {
	if err := er.Check(&cfg); err != nil {
		return Metrics{}, err
	}
	nc := er.Net
	nc.Seed = xrand.New(er.Seed).StreamSeed(uint64(pointIdx), seed)
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
	if cfg.Scheme != "" {
		return er.runScheme(e, cfg, nc.Seed)
	}
	out := er.standing(e)
	if er.Queries > 0 {
		pairs := e.RandomPairs(er.Queries, nc.Seed^pairSalt)
		res := e.BatchQuery(pairs)
		if len(res) > 0 {
			qs := querySummary{msgs: stats.NewWindow(len(res)), hops: stats.NewWindow(len(res))}
			for _, r := range res {
				qs.add(r.Found, r.Messages, r.PathHops)
			}
			qs.fill(&out, len(res))
		}
	}
	return out, nil
}

// Check refuses a cell Run cannot run and fills cfg's protocol defaults
// in place, as Config.Validate does. Config.Validate reads NoC 0 as "the
// default", so a NoC = 0 cell would report a default-NoC run under a NoC=0
// label; the no-contacts baseline is an experiments-harness rule, not an
// engine run.
func (EngineRunner) Check(cfg *CellConfig) error {
	if cfg.Proto.NoC == 0 {
		return errors.New("sweep: NoC = 0 is not an engine run (the engine reads it as the default NoC); sweep NoC >= 1")
	}
	return cfg.Proto.Validate()
}

// runScheme measures a scheme-axis cell: place the replicated catalogue,
// run the scheme's registration (rendezvous charges CatRegister here),
// fold registration into the overhead rate, then resolve the query load
// through one scheme worker. Draws come from the cell seed's pairSalt
// substream, so the offered (source, resource) sequence is identical for
// every scheme at the same cell coordinates — the cross-scheme fairness
// the sustained workload pins, reproduced at sweep-cell scale.
func (er EngineRunner) runScheme(e *engine.Engine, cfg CellConfig, cellSeed uint64) (Metrics, error) {
	root := xrand.New(cellSeed ^ pairSalt)
	place := root.Derive(0)
	draws := root.Derive(1)
	n := e.Nodes()
	resources, replicas := er.Resources, er.Replicas
	if resources <= 0 {
		resources = 64
	}
	if replicas <= 0 {
		replicas = 1
	}
	dir := resource.NewDirectory(n)
	for id := 0; id < resources; id++ {
		dir.PlaceReplicas(resource.ID(id), replicas, place)
	}
	sch, err := scheme.New(cfg.Scheme, scheme.Env{Net: e.Network(), Prot: e.Protocol(), Dir: dir, Seed: cellSeed})
	if err != nil {
		return Metrics{}, err
	}
	sch.Setup()
	out := er.standing(e)
	if er.Queries > 0 {
		w := sch.Worker()
		qs := querySummary{msgs: stats.NewWindow(er.Queries), hops: stats.NewWindow(er.Queries)}
		net := e.Network()
		for q := 0; q < er.Queries; q++ {
			src := scheme.NodeID(draws.Intn(n))
			id := resource.ID(draws.Intn(resources))
			if net.Down(src) {
				continue // offered but unservable; a failure with no traffic
			}
			r := w.Discover(src, id)
			qs.add(r.Found, r.Messages, r.PathHops)
		}
		w.Flush()
		qs.fill(&out, er.Queries)
	}
	return out, nil
}

// standing measures what a cell costs and offers before any query runs:
// the overhead rate — contact selection and upkeep plus scheme
// registration (zero unless a rendezvous Setup ran) per node per second —
// and mean reachability at the configured depth.
func (er EngineRunner) standing(e *engine.Engine) Metrics {
	m := e.Messages()
	out := Metrics{Reach: e.MeanReachability(e.Config().Depth)}
	out.Overhead = float64(m.Selection+m.Backtrack+m.Validation+m.Recovery+m.Register) / float64(e.Nodes())
	if er.Horizon > 0 {
		out.Overhead /= er.Horizon
	}
	return out
}

// querySummary accumulates a cell's per-query records for the Success /
// Msgs / Hops metrics both cell bodies report. The windows are sized to
// the cell's query budget: every sample is held, so the summaries are
// identical to sorting a retained slice, but the cell's footprint is
// bounded by its own budget — the shape large sweeps (many cells × many
// queries) rely on.
type querySummary struct {
	msgs, hops *stats.Window
	found      int
}

func (qs *querySummary) add(found bool, msgs int64, hops int) {
	qs.msgs.Add(float64(msgs))
	if found {
		qs.found++
		qs.hops.Add(float64(hops))
	}
}

// fill writes the metrics; offered is the success denominator (it exceeds
// the added records when sources were down).
func (qs *querySummary) fill(out *Metrics, offered int) {
	out.Success = 100 * float64(qs.found) / float64(offered)
	out.Msgs = qs.msgs.Summary()
	out.Hops = qs.hops.Summary()
}
