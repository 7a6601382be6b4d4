package topology

import "card/internal/geom"

// buildNaive is the oracle every builder test compares against: the
// textbook O(N²) all-pairs scan straight from the link predicate — an edge
// u→v iff both are up, dist(u,v) <= RangeOf(u) and no active barrier
// separates them. It shares no code with Builder: no grid, no sorting
// (ascending loops leave every list sorted), no incremental state.
func buildNaive(pos []geom.Point, area geom.Rect, lm LinkModel, down []bool) *Graph {
	lm.validate(len(pos))
	g := &Graph{
		pos:    append([]geom.Point(nil), pos...),
		area:   area,
		rng:    lm.Max(),
		ranges: lm.Ranges,
		adj:    make([][]NodeID, len(pos)),
	}
	directed := lm.Directed()
	edge := func(u, v int) bool {
		r := lm.RangeOf(u)
		return u != v && !isDown(down, u) && !isDown(down, v) &&
			pos[u].Dist2(pos[v]) <= r*r && !lm.cuts(pos[u], pos[v])
	}
	if directed {
		g.in = make([][]NodeID, len(pos))
	}
	for u := range pos {
		for v := range pos {
			if edge(u, v) {
				g.adj[u] = append(g.adj[u], NodeID(v))
				g.links++
			}
			if directed && edge(v, u) {
				g.in[u] = append(g.in[u], NodeID(v))
			}
		}
	}
	if !directed {
		g.links /= 2 // each undirected link was seen from both ends
	}
	return g
}
