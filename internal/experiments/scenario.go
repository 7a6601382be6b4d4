// Package experiments reproduces the paper's evaluation (§IV): one runner
// per table and figure, plus ablations on CARD's design choices. Each
// runner builds its own deterministic simulation per (parameter, seed)
// cell, fans the cells across worker goroutines, and renders the same rows
// or series the paper reports.
package experiments

import (
	"fmt"

	"card/internal/card"
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

func (s Scenario) String() string {
	return fmt.Sprintf("#%d N=%d %s tx=%gm", s.ID, s.N, s.Area, s.TxRange)
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
	out.N = int(float64(s.N) * f)
	if out.N < 10 {
		out.N = 10
	}
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

// MobileNet builds a random-waypoint network for the scenario.
func (s Scenario) MobileNet(seed uint64, cfg mobility.RWPConfig) (*manet.Network, error) {
	rng := xrand.New(seed ^ uint64(s.ID)<<32)
	m, err := mobility.NewRandomWaypoint(s.N, s.Area, cfg, rng)
	if err != nil {
		return nil, err
	}
	return manet.NewNetwork(m, s.substrate(), rng.Derive(1)), nil
}

// NewCARD wires a CARD protocol with an oracle neighborhood over net.
func NewCARD(net *manet.Network, cfg card.Config, seed uint64) (*card.Protocol, error) {
	nb := neighborhood.NewOracle(net, cfg.R)
	return card.New(net, nb, cfg, xrand.New(seed).Derive(2))
}
