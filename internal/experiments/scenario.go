// Package experiments reproduces the paper's evaluation (§IV) plus
// ablations on CARD's design choices. The evaluation is one experiment run
// many ways — a parameter grid x seeds 1..S, one isolated deterministic
// simulation per (point, seed) cell — so the package is one ordered
// registry (registry.go) of entries declared over one cell harness
// (harness.go): cells fans the grid, average folds a point's seeds, and
// three figure shapes sit on top — scalar rows, reachability
// distributions, time series. paper.go declares Table 1 and Figs. 3-15,
// extensions.go the ablations and future-work studies.
package experiments

import (
	"fmt"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/topology"
	"card/internal/xrand"
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

// Scaled returns the scenario shrunk by factor f (0 < f <= 1): node count
// scales by f and the area by √f, preserving density. Benchmarks and CI
// use scaled scenarios; f = 1 reproduces the paper's sizes.
func (s Scenario) Scaled(f float64) Scenario {
	if f >= 1 {
		return s
	}
	out := s
	out.N = max(int(float64(s.N)*f), 10)
	scale := sqrtf(f)
	out.Area = geom.Rect{W: s.Area.W * scale, H: s.Area.H * scale}
	return out
}

func sqrtf(x float64) float64 {
	// Newton's iteration; avoids importing math for one call site.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// StaticNet builds a uniformly placed static network for the scenario.
func (s Scenario) StaticNet(seed uint64) *manet.Network {
	rng := xrand.New(seed ^ uint64(s.ID)<<32)
	pts := topology.UniformPositions(s.N, s.Area, rng)
	return manet.NewNetwork(mobility.NewStatic(pts, s.Area), s.substrate(), rng.Derive(1))
}

// substrate is the paper's radio layer: one uniform range, no churn, no
// loss.
func (s Scenario) substrate() manet.Config {
	return manet.Config{Link: topology.LinkModel{Uniform: s.TxRange}}
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

// rwpNet builds a random-waypoint network for the scenario under the
// paper's default waypoint parameters.
func (s Scenario) rwpNet(seed uint64) *manet.Network {
	rng := xrand.New(seed ^ uint64(s.ID)<<32)
	m := must(mobility.NewRandomWaypoint(s.N, s.Area, mobility.DefaultRWP(), rng))
	return manet.NewNetwork(m, s.substrate(), rng.Derive(1))
}

// engineNet is the scenario as an engine network: the same field and
// radio, seeded like StaticNet; the caller picks the mobility model.
func (s Scenario) engineNet(seed uint64) engine.NetworkConfig {
	return engine.NetworkConfig{
		Nodes: s.N, Width: s.Area.W, Height: s.Area.H, TxRange: s.TxRange,
		Seed: seed ^ uint64(s.ID)<<32,
	}
}

// deploy wires a CARD protocol with an oracle neighborhood over net and
// runs the initial contact selection at t=0. A literal NoC = 0 is the
// paper's no-contacts baseline (the Fig. 7 and Fig. 14 NoC=0 curves):
// Config.Validate treats zero as "default", so it is validated as 1 and
// selection is skipped entirely — the tables stay empty.
func deploy(net *manet.Network, cfg card.Config, seed uint64) *card.Protocol {
	noContacts := cfg.NoC == 0
	if noContacts {
		cfg.NoC = 1
	}
	p := must(card.New(net, neighborhood.NewOracle(net, cfg.R), cfg, xrand.New(seed).Derive(2)))
	if !noContacts {
		p.SelectAll(0)
	}
	return p
}
