// Package experiments reproduces the paper's evaluation (§IV) plus
// ablations on CARD's design choices. The evaluation is one experiment run
// many ways — a parameter grid x seeds 1..S, one isolated deterministic
// simulation per (point, seed) cell — so the package is one ordered
// registry (registry.go) of entries declared over one cell harness
// (harness.go): sweep.Cells fans the grid, average folds a point's seeds,
// and three figure shapes sit on top — scalar rows, reachability
// distributions, time series. paper.go declares Table 1 and Figs. 3-15,
// extensions.go the ablations and future-work studies.
package experiments

import (
	"fmt"
	"math"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/geom"
)

// Scenario is one row of the paper's Table 1: a network size, deployment
// area, and transmission range.
type Scenario struct {
	ID      int
	N       int
	Area    geom.Rect
	TxRange float64
}

// Table1Scenarios lists the eight simulation scenarios of Table 1.
var Table1Scenarios = []Scenario{
	{ID: 1, N: 250, Area: geom.Rect{W: 500, H: 500}, TxRange: 50},
	{ID: 2, N: 250, Area: geom.Rect{W: 710, H: 710}, TxRange: 50},
	{ID: 3, N: 250, Area: geom.Rect{W: 1000, H: 1000}, TxRange: 50},
	{ID: 4, N: 500, Area: geom.Rect{W: 710, H: 710}, TxRange: 30},
	{ID: 5, N: 500, Area: geom.Rect{W: 710, H: 710}, TxRange: 50},
	{ID: 6, N: 500, Area: geom.Rect{W: 710, H: 710}, TxRange: 70},
	{ID: 7, N: 1000, Area: geom.Rect{W: 710, H: 710}, TxRange: 50},
	{ID: 8, N: 1000, Area: geom.Rect{W: 1000, H: 1000}, TxRange: 50},
}

// Scenario5 is the paper's workhorse configuration (most figures).
var Scenario5 = Table1Scenarios[4]

// minNodes is the smallest network a scaled scenario or preset holds.
const minNodes = 10

// Scaled returns the scenario shrunk by factor f (0 < f <= 1): node count
// scales by f and the area by √f, preserving density. Benchmarks and CI
// use scaled scenarios; f = 1 reproduces the paper's sizes. N never drops
// below minNodes; CheckScale refuses the factors at which it would.
func (s Scenario) Scaled(f float64) Scenario {
	if f >= 1 {
		return s
	}
	out := s
	out.N = max(int(float64(s.N)*f), minNodes)
	scale := math.Sqrt(f)
	out.Area = geom.Rect{W: s.Area.W * scale, H: s.Area.H * scale}
	return out
}

// CheckScale refuses a scale factor outside (0, 1], and one at which
// Scaled would hold a Table 1 scenario at minNodes while its area still
// shrank: that run would no longer have the density the scale promises.
// Table 1 holds the smallest networks any experiment scales.
func CheckScale(f float64) error {
	if !(f > 0 && f <= 1) {
		return fmt.Errorf("want a factor in (0, 1]")
	}
	for _, s := range Table1Scenarios {
		if int(float64(s.N)*f) < minNodes {
			return fmt.Errorf("Table 1 scenario %d (N = %d) would floor at %d nodes; want a factor >= %g",
				s.ID, s.N, minNodes, float64(minNodes)/float64(s.N))
		}
	}
	return nil
}

// must unwraps a constructor's result. Every configuration, spec and
// preset the experiments build from is static data in this package, so an
// error is a bug in a declaration, not a condition to handle.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return v
}

// engineNet is the scenario as an engine network under mobility model m:
// the scenario's field and one uniform radio range, no churn, no loss.
// Repetition seed s runs network seed s^ID<<32, so equal seeds on
// different scenarios differ.
func (s Scenario) engineNet(seed uint64, m engine.MobilityKind) engine.NetworkConfig {
	return engine.NetworkConfig{
		Nodes: s.N, Width: s.Area.W, Height: s.Area.H, TxRange: s.TxRange,
		Mobility: m, Seed: seed ^ uint64(s.ID)<<32,
	}
}

// bare configures a cell that reads only the graph (Table 1, the
// small-world census): the smallest valid R and r, and NoC 0, so no
// contact is ever selected.
var bare = card.Config{R: 1, MaxContactDist: 2}

// deploy is every experiment cell's world: one engine over nc with the
// initial contact selection run at t=0. NoC = 0 is the paper's
// no-contacts baseline (the Fig. 7 and Fig. 14 NoC=0 curves): selection
// adds nothing and the tables stay empty.
func deploy(nc engine.NetworkConfig, cfg card.Config) *engine.Engine {
	e := must(engine.New(nc, cfg))
	e.SelectContacts()
	return e
}
