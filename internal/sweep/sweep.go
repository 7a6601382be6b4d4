// Package sweep is the generic parameter-study engine: it spans a grid
// over the CARD configuration axes (R, r, NoC, depth of search, selection
// method, validation period) and the discovery-scheme axis (any name
// registered with the scheme package) times independent seeds, runs every
// cell as an isolated simulation, and aggregates the
// overhead-vs-reachability trade-off the paper's evaluation revolves
// around — including the Pareto frontier of non-dominated configurations.
//
// # Cell isolation and determinism
//
// A cell is one (grid point, seed) pair, and Cells is the one fan-out
// over them. Cells share nothing: each owns its whole simulation
// (network, protocol, RNG lineage), with the default engine-backed runner
// seeding every cell from the counter-based substream (pointIdx, seed) of
// the sweep's root seed, EngineRunner.Net.Seed (xrand.StreamSeed). A
// cell's result is therefore a pure function of (grid, root seed, cell
// coordinates) — independent of which worker runs it, in what order, or
// at what GOMAXPROCS. Results land in slices indexed by cell, so a sweep
// sharded across the par pool is bit-identical to the same sweep run
// serially (GOMAXPROCS 1); TestSweepParallelEquivalence pins it, the
// same contract the engine pins for its maintenance rounds.
//
// # Layering
//
// sweep sits under experiments: every experiments figure fans its cells
// out through Cells, declares the parameter axis of the paper's Figs.
// 5-8 and 10-14 as grid specs this package parses and materializes
// (ParseSpec, Grid.Point, Grid.Config), and runs the stock `sweep`
// experiment through Grid.Run, rendering the point table through
// experiments.SweepTable. cmd/cardsim -sweep exposes ad-hoc grids over
// any workload preset and prints the same table, or Result.JSON.
package sweep

import (
	"fmt"

	proto "card/internal/card"
	"card/internal/par"
	"card/internal/scheme"
	"card/internal/stats"
)

// Axis is one swept parameter: a canonical config-axis name (see
// ParseSpec for the grammar and accepted names) plus the values it takes.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Grid spans the cartesian product of its axes, times Seeds repetitions
// per point. Cells fan out across up to GOMAXPROCS workers; results are
// bit-identical to the serial order.
type Grid struct {
	// Base is the configuration every cell starts from; axis values are
	// applied on top.
	Base proto.Config
	// Scheme is the discovery scheme every cell starts from ("" is card);
	// a Scheme axis overrides it per point.
	Scheme string
	// Axes are the swept parameters; the last axis varies fastest in the
	// point enumeration. An empty Axes is a single-point grid.
	Axes []Axis
	// Seeds is the number of independent repetitions per point (>= 1;
	// 0 defaults to 1, a negative count is refused). Cell c of point p
	// runs with seed c+1 (see Cells).
	Seeds int
}

// maxCells bounds a grid's total size; a sweep beyond it is almost
// certainly a spec typo (e.g. a float step underflow).
const maxCells = 100_000

// Validate checks the grid and fills defaults in place.
func (g *Grid) Validate() error {
	if g.Seeds < 0 {
		return fmt.Errorf("sweep: Seeds = %d, want >= 1 (0 is the default 1)", g.Seeds)
	}
	g.Seeds = max(g.Seeds, 1)
	if !scheme.Known(g.Scheme) {
		return fmt.Errorf("sweep: unknown scheme %q (have %v)", g.Scheme, scheme.Names())
	}
	seen := make(map[string]bool, len(g.Axes))
	for i, a := range g.Axes {
		d, err := canonAxis(a.Name)
		if err != nil {
			return err
		}
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %s has no values", a.Name)
		}
		if seen[d.canon] {
			return fmt.Errorf("sweep: axis %s appears twice", d.canon)
		}
		seen[d.canon] = true
		g.Axes[i].Name = d.canon
		for _, v := range a.Values {
			if err := d.check(v); err != nil {
				return err
			}
		}
	}
	if c := g.Points() * g.Seeds; c > maxCells {
		return fmt.Errorf("sweep: grid spans %d cells, max %d", c, maxCells)
	}
	return nil
}

// Points returns the number of grid points (1 with no axes).
func (g *Grid) Points() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Cells returns the total number of (point, seed) cells.
func (g *Grid) Cells() int { return g.Points() * g.Seeds }

// Point returns the axis values of point idx: the enumeration is
// row-major with the last axis varying fastest.
func (g *Grid) Point(idx int) []float64 {
	vals := make([]float64, len(g.Axes))
	for i := len(g.Axes) - 1; i >= 0; i-- {
		n := len(g.Axes[i].Values)
		vals[i] = g.Axes[i].Values[idx%n]
		idx /= n
	}
	return vals
}

// CellConfig is the full per-cell configuration a sweep materializes: the
// CARD protocol parameters plus the discovery scheme the cell's queries
// run through.
type CellConfig struct {
	// Proto is the CARD protocol configuration of the cell.
	Proto proto.Config
	// Scheme names the discovery scheme of the cell (see scheme.Names;
	// "" is card).
	Scheme string
	// Loss and RangeSpread are the network-layer axes: set only when
	// swept, they override the runner's engine.NetworkConfig fields of the
	// same names.
	Loss, RangeSpread *float64
}

// Config materializes the cell configuration of a point: Base (and the
// base Scheme) with the axis values applied. Cross-field consistency
// (e.g. r > R) is checked by the consumer's Config.Validate, so a grid
// may legally span points that turn out invalid — those cells surface the
// validation error.
func (g *Grid) Config(point []float64) (CellConfig, error) {
	cfg := CellConfig{Proto: g.Base, Scheme: g.Scheme}
	for i, a := range g.Axes {
		d, err := canonAxis(a.Name)
		if err != nil {
			return cfg, err
		}
		d.apply(&cfg, point[i])
	}
	return cfg, nil
}

// Cells is the one (point, seed) fan-out: it runs cell once per pair —
// point-major, repetition s with seed s+1 — across up to GOMAXPROCS
// workers and returns each point's results in seed order. The cell body
// must be a pure function of its arguments (it builds its own simulation
// from them); results are then bit-identical at any GOMAXPROCS. Grid.Run
// and every experiments figure fan out through it.
func Cells[M any](points, seeds int, cell func(point int, seed uint64) M) [][]M {
	flat := make([]M, points*seeds)
	par.Do(len(flat), func(i int) { flat[i] = cell(i/seeds, uint64(i%seeds)+1) })
	out := make([][]M, points)
	for p := range out {
		out[p] = flat[p*seeds : (p+1)*seeds]
	}
	return out
}

// Metrics are the scalar measurements of one cell (or the seed-average of
// one point): the paper's §IV–§V trade-off quantities.
type Metrics struct {
	// Overhead is engine.MessageCounts.Overhead per node per simulated
	// second (total per node for horizon-less static cells).
	Overhead float64 `json:"overhead"`
	// Reach is the mean reachability percentage at the cell's depth.
	Reach float64 `json:"reach"`
	// Success is the percentage of offered lookups that found a holder;
	// a lookup from a down source is a miss.
	Success float64 `json:"success"`
	// Msgs summarizes control messages per query (P50/P95/P99 quantiles).
	Msgs stats.Summary `json:"msgs"`
	// Hops summarizes discovered-path lengths over the found queries.
	Hops stats.Summary `json:"hops"`
}

// Runner computes one cell's scalar metrics. Implementations must derive
// all randomness from (pointIdx, seed) — see EngineRunner for the default.
type Runner func(cfg CellConfig, point []float64, pointIdx int, seed uint64) (Metrics, error)

// Cell is one executed (point, seed) run.
type Cell struct {
	PointIdx int     `json:"point"`
	Seed     uint64  `json:"seed"`
	Metrics  Metrics `json:"metrics"`
}

// PointResult is the seed-average of one grid point. Quantile summaries
// average field-wise across seeds (N sums), the experiment harness
// convention for repeated cells.
type PointResult struct {
	Point   []float64 `json:"point"`
	Metrics Metrics   `json:"metrics"`
	// OnFrontier marks membership of the overhead-vs-reach Pareto
	// frontier (see Result.Pareto).
	OnFrontier bool `json:"pareto"`
}

// Result is a completed sweep.
type Result struct {
	Axes   []Axis        `json:"axes"`
	Seeds  int           `json:"seeds"`
	Cells  []Cell        `json:"cells"`
	Points []PointResult `json:"points"`
}

// Run executes the grid with the given cell runner and aggregates per
// point. The first cell error (in cell order) aborts the sweep.
func (g *Grid) Run(run Runner) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Materialize configs up front: spec-level errors surface before any
	// simulation spins up, and workers share read-only state.
	pts := make([][]float64, g.Points())
	cfgs := make([]CellConfig, len(pts))
	for p := range pts {
		pts[p] = g.Point(p)
		cfg, err := g.Config(pts[p])
		if err != nil {
			return nil, err
		}
		cfgs[p] = cfg
	}
	type outcome struct {
		m   Metrics
		err error
	}
	runs := Cells(len(pts), g.Seeds, func(p int, seed uint64) outcome {
		m, err := run(cfgs[p], pts[p], p, seed)
		return outcome{m, err}
	})
	res := &Result{Axes: g.Axes, Seeds: g.Seeds, Cells: make([]Cell, 0, g.Cells()), Points: make([]PointResult, len(pts))}
	s := float64(g.Seeds)
	for p, seeds := range runs {
		pr := PointResult{Point: pts[p]}
		for k, c := range seeds {
			if c.err != nil {
				return nil, fmt.Errorf("sweep: cell %d (point %v, seed %d): %w", p*g.Seeds+k, pts[p], k+1, c.err)
			}
			m := c.m
			res.Cells = append(res.Cells, Cell{PointIdx: p, Seed: uint64(k) + 1, Metrics: m})
			pr.Metrics.Overhead += m.Overhead / s
			pr.Metrics.Reach += m.Reach / s
			pr.Metrics.Success += m.Success / s
			addSummary(&pr.Metrics.Msgs, m.Msgs, s)
			addSummary(&pr.Metrics.Hops, m.Hops, s)
		}
		res.Points[p] = pr
	}
	for _, i := range res.Pareto() {
		res.Points[i].OnFrontier = true
	}
	return res, nil
}

// addSummary folds one seed's quantile summary into the point average:
// quantiles and means average field-wise, sample counts sum.
func addSummary(dst *stats.Summary, src stats.Summary, seeds float64) {
	dst.N += src.N
	dst.Mean += src.Mean / seeds
	dst.P50 += src.P50 / seeds
	dst.P95 += src.P95 / seeds
	dst.P99 += src.P99 / seeds
	dst.Max += src.Max / seeds
}
