package topology

import (
	"math"

	"card/internal/geom"
)

// LinkModel describes the radio layer a connectivity snapshot is built
// from. The zero value is invalid; most scenarios set only Uniform, which
// gives the classic undirected unit-disk graph.
//
// Setting Ranges or a barrier switches the graph into directed mode:
// there is an edge u→v iff dist(u,v) <= RangeOf(u) and the barrier (when
// active) does not separate u and v. Out- and in-adjacency are then
// maintained separately; a protocol-level hop additionally needs the
// reverse edge (see Graph.Bidirectional) because link-layer
// acknowledgements must travel back.
type LinkModel struct {
	// Uniform is the scalar transmission range in meters (> 0). With
	// Ranges set it only serves as documentation of the nominal range;
	// grid sizing and Graph.TxRange use the maximum of Ranges instead.
	Uniform float64

	// Ranges, when non-nil, gives node i its own transmission range
	// Ranges[i] (> 0, length = node count), producing asymmetric links
	// between nodes with different radios.
	Ranges []float64

	// BarrierX > 0 places a vertical barrier at x = BarrierX that, while
	// BarrierActive, cuts every link crossing it — the scheduled
	// partition-and-heal scenario. The cut is symmetric, so a barrier on
	// its own never creates one-way links. BarrierX <= 0 means no barrier
	// is configured.
	BarrierX      float64
	BarrierActive bool
}

// Directed reports whether the model can produce asymmetric links (per-node
// ranges) or needs in-adjacency kept apart for another reason (a barrier).
// A configured-but-inactive barrier still counts as directed so that a
// builder's snapshot shape stays stable across partition toggles.
func (lm LinkModel) Directed() bool { return lm.Ranges != nil || lm.BarrierX > 0 }

// RangeOf returns node i's transmission range.
func (lm LinkModel) RangeOf(i int) float64 {
	if lm.Ranges == nil {
		return lm.Uniform
	}
	return lm.Ranges[i]
}

// Max returns the largest transmission range in the model — the grid cell
// size, and what Graph.TxRange reports for heterogeneous snapshots.
func (lm LinkModel) Max() float64 {
	if lm.Ranges == nil {
		return lm.Uniform
	}
	m := 0.0
	for _, r := range lm.Ranges {
		if r > m {
			m = r
		}
	}
	return m
}

// Min returns the smallest transmission range in the model.
func (lm LinkModel) Min() float64 {
	if lm.Ranges == nil {
		return lm.Uniform
	}
	m := lm.Ranges[0]
	for _, r := range lm.Ranges[1:] {
		if r < m {
			m = r
		}
	}
	return m
}

// cuts reports whether the (active) barrier separates p and q.
func (lm LinkModel) cuts(p, q geom.Point) bool {
	return lm.BarrierActive && (p.X < lm.BarrierX) != (q.X < lm.BarrierX)
}

// validate panics on a model that cannot cover n nodes: every range in use
// must be positive and finite (the comparisons are written so NaN fails
// them too).
func (lm LinkModel) validate(n int) {
	ranges := lm.Ranges
	if ranges == nil {
		ranges = []float64{lm.Uniform}
	} else if len(ranges) != n {
		panic("topology: LinkModel.Ranges length does not match node count")
	}
	for _, r := range ranges {
		if !(r > 0) || math.IsInf(r, 1) {
			panic("topology: transmission range must be positive and finite")
		}
	}
}
