// Package topology builds and analyzes the unit-disk connectivity graphs
// underlying the MANET simulation.
//
// A Graph is an immutable snapshot: node positions plus adjacency under a
// fixed transmission range. The mobility layer produces a fresh snapshot
// whenever positions change; protocols query the snapshot through
// [manet.Network].
//
// The package also computes the connectivity census reported in the paper's
// Table 1: link count, mean node degree, network diameter, and average hop
// count between reachable pairs.
package topology

import (
	"fmt"
	"slices"
	"sort"

	"card/internal/geom"
	"card/internal/xrand"
)

// NodeID indexes a node within a Graph; ids are dense in [0, N).
type NodeID = int32

// None is the sentinel for "no node": a root's parent, the target of a
// search nobody answers.
const None NodeID = -1

// Graph is an immutable unit-disk connectivity snapshot.
//
// In the classic scalar model (one uniform transmission range, the
// paper's setting) the graph is undirected and adj is the whole story. A
// heterogeneous [LinkModel] (per-node ranges, partition barrier) makes
// the graph directed: adj[u] holds the out-neighbors (nodes u can
// transmit to), in[u] the in-neighbors, and links counts directed edges.
// Neighbors/Adjacent/BFS always follow out-edges; protocol hops that need
// an acknowledgement path back use Bidirectional.
type Graph struct {
	pos  []geom.Point
	area geom.Rect
	rng  float64 // max transmission range, meters (grid cell size)
	// ranges holds per-node transmission ranges in directed mode built
	// from LinkModel.Ranges; nil means every node uses rng.
	ranges []float64
	adj    [][]NodeID // out-adjacency (the only adjacency when undirected)
	in     [][]NodeID // in-adjacency; nil iff the snapshot is undirected
	links  int
}

// Build constructs the connectivity snapshot of pos under the link model:
// an edge u→v iff dist(u,v) <= lm.RangeOf(u) and no active barrier
// separates them (a plain uniform range gives the undirected unit-disk
// graph). Nodes with down[i] true take part in no links — their adjacency
// is empty and no other node lists them — modeling churned-out devices
// whose radios are off while their ids and positions persist; a nil mask
// means every node is up. It is a one-shot [Builder], so a snapshot built
// here and one maintained across updates cannot disagree.
func Build(pos []geom.Point, area geom.Rect, lm LinkModel, down []bool) *Graph {
	return NewBuilder(len(pos), area, lm).Update(pos, down, nil)
}

// isDown reads an optional exclusion mask (nil = all up).
func isDown(down []bool, i int) bool { return down != nil && down[i] }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.pos) }

// Area returns the deployment area.
func (g *Graph) Area() geom.Rect { return g.area }

// TxRange returns the transmission range in meters. For a heterogeneous
// snapshot this is the maximum over all nodes — callers that render or
// size by range should use RangeOf for
// the distribution instead of silently reporting the max.
func (g *Graph) TxRange() float64 { return g.rng }

// RangeOf returns node u's own transmission range.
func (g *Graph) RangeOf(u NodeID) float64 {
	if g.ranges == nil {
		return g.rng
	}
	return g.ranges[u]
}

// Directed reports whether the snapshot was built from a link model that
// can produce asymmetric links (per-node ranges or a partition barrier).
// Undirected snapshots guarantee Adjacent(u,v) == Adjacent(v,u).
func (g *Graph) Directed() bool { return g.in != nil }

// Pos returns the position of node u.
func (g *Graph) Pos(u NodeID) geom.Point { return g.pos[u] }

// Neighbors returns the out-adjacency list of u (every adjacency when the
// graph is undirected). Callers must not mutate it.
func (g *Graph) Neighbors(u NodeID) []NodeID { return g.adj[u] }

// InNeighbors returns the in-adjacency list of u: the nodes whose
// transmissions reach u. Identical to Neighbors on undirected snapshots.
// Callers must not mutate it.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	if g.in == nil {
		return g.adj[u]
	}
	return g.in[u]
}

// Degree returns the number of out-neighbors of u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Links returns the number of links: undirected links for a scalar-range
// snapshot, directed edges for a directed one (a symmetric pair counts
// twice there).
func (g *Graph) Links() int { return g.links }

// Adjacent reports whether u can transmit to v (dist(u,v) <= range(u) and
// no active barrier between them); on undirected snapshots this is the
// symmetric link predicate. O(log degree), via a closure-free binary
// search over the sorted adjacency list — this is the innermost probe of
// path validation, query walks and the clustering census, so it must not
// allocate or indirect through a func value.
func (g *Graph) Adjacent(u, v NodeID) bool {
	_, ok := slices.BinarySearch(g.adj[u], v)
	return ok
}

// Bidirectional reports whether u and v can exchange packets in both
// directions — the requirement for a protocol-level unicast hop, whose
// link-layer acknowledgement must travel v→u. On undirected snapshots it
// is exactly Adjacent.
func (g *Graph) Bidirectional(u, v NodeID) bool {
	if g.in == nil {
		return g.Adjacent(u, v)
	}
	return g.Adjacent(u, v) && g.Adjacent(v, u)
}

// BFSResult is a breadth-first scan over out-edges from Source. The zero
// value is ready for Run, and one value re-Run across sources and
// snapshots stops allocating once its arrays have grown to fit.
type BFSResult struct {
	Source NodeID
	// Dist[v] is the hop distance from Source to v, or -1 if unreachable
	// (or beyond the hop limit for bounded searches).
	Dist []int32
	// Visited lists reached nodes in non-decreasing distance order,
	// starting with Source itself.
	Visited []NodeID
	// level[d] is the index in Visited of the first node d hops out.
	level []int
}

// BFS runs a breadth-first search from src across the whole graph.
func (g *Graph) BFS(src NodeID) *BFSResult { return g.BoundedBFS(src, -1) }

// BoundedBFS runs a breadth-first search from src into a fresh result,
// exploring at most maxHops hops (maxHops < 0 means unbounded). Nodes
// beyond the bound have Dist -1.
func (g *Graph) BoundedBFS(src NodeID, maxHops int) *BFSResult {
	r := new(BFSResult)
	r.Run(g, src, maxHops)
	return r
}

// Run rescans from src over g, exploring at most maxHops hops (maxHops < 0
// means unbounded). It clears only the nodes the previous scan reached, so
// a scan costs the ball it covers rather than N; Dist is reallocated only
// when g's size differs from the last graph scanned.
func (r *BFSResult) Run(g *Graph, src NodeID, maxHops int) {
	if n := g.N(); len(r.Dist) != n {
		r.Dist = make([]int32, n)
		for i := range r.Dist {
			r.Dist[i] = -1
		}
	} else {
		for _, v := range r.Visited {
			r.Dist[v] = -1
		}
	}
	r.Source = src
	r.Dist[src] = 0
	r.Visited = append(r.Visited[:0], src)
	r.level = append(r.level[:0], 0)
	// Visited is the queue: nodes are expanded in the order they were
	// reached, so distances never decrease along it.
	for i := 0; i < len(r.Visited); i++ {
		u := r.Visited[i]
		d := r.Dist[u] + 1
		if maxHops >= 0 && int(d) > maxHops {
			break
		}
		for _, v := range g.adj[u] {
			if r.Dist[v] >= 0 {
				continue
			}
			if int(d) == len(r.level) {
				r.level = append(r.level, len(r.Visited))
			}
			r.Dist[v] = d
			r.Visited = append(r.Visited, v)
		}
	}
}

// Within returns the number of reached nodes closer than k hops to
// Source; k < 0 counts every reached node.
func (r *BFSResult) Within(k int) int {
	if k < 0 || k >= len(r.level) {
		return len(r.Visited)
	}
	return r.level[k]
}

// Components returns the connected components, each a sorted node list,
// ordered by descending size (ties by smallest member).
func (g *Graph) Components() [][]NodeID {
	n := g.N()
	seen := make([]bool, n)
	var scan BFSResult
	var comps [][]NodeID
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		scan.Run(g, NodeID(i), -1)
		comp := slices.Clone(scan.Visited)
		slices.Sort(comp)
		for _, v := range comp {
			seen[v] = true
		}
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(a, b int) bool {
		if len(comps[a]) != len(comps[b]) {
			return len(comps[a]) > len(comps[b])
		}
		return comps[a][0] < comps[b][0]
	})
	return comps
}

// LargestComponent returns the node set of the largest connected component.
func (g *Graph) LargestComponent() []NodeID {
	comps := g.Components()
	if len(comps) == 0 {
		return nil
	}
	return comps[0]
}

// Census is the connectivity summary reported in the paper's Table 1.
type Census struct {
	N          int     // nodes
	Links      int     // undirected links
	MeanDegree float64 // 2*Links/N
	Diameter   int     // max shortest-path length over reachable pairs
	AvgHops    float64 // mean shortest-path length over reachable pairs
	// LargestComponentFrac is the fraction of nodes in the largest
	// connected component (1.0 for a connected network). Table 1's sparser
	// scenarios (e.g. 250 nodes over 1000x1000 m) are partitioned, which is
	// visible in their small diameter / avg-hops numbers.
	LargestComponentFrac float64
	// MeanClustering is the mean local clustering coefficient — not in
	// Table 1, but reported because the small-world argument (§I, [10][13])
	// rests on high clustering plus short cuts.
	MeanClustering float64
}

// censusSourceCap bounds the number of BFS sources ComputeCensus uses
// for Diameter/AvgHops. All paper scenarios (N <= 2000) sit below the
// cap and get the exact all-pairs values; above it sources are sampled
// at a fixed stride, since exact all-pairs BFS is O(N·(N+E)) — tens of
// minutes at 100k nodes for two summary statistics.
const censusSourceCap = 2048

// ComputeCensus runs per-source BFS and summarizes connectivity. Pairs in
// different components are excluded from Diameter/AvgHops, matching how a
// partitioned scenario can legitimately report diameter smaller than a
// denser one (cf. Table 1 scenario 3). Up to censusSourceCap nodes every
// node is a source (exact all-pairs figures); beyond that, sources are an
// evenly-spaced deterministic sample, making Diameter a lower bound and
// AvgHops an estimate. Links, MeanDegree, LargestComponentFrac and
// MeanClustering are exact at every size.
func (g *Graph) ComputeCensus() Census {
	n := g.N()
	c := Census{N: n, Links: g.links}
	if n > 0 {
		if g.Directed() {
			// links counts directed edges; the mean out-degree is the
			// comparable figure.
			c.MeanDegree = float64(g.links) / float64(n)
		} else {
			c.MeanDegree = 2 * float64(g.links) / float64(n)
		}
	}
	stride := 1
	if n > censusSourceCap {
		stride = (n + censusSourceCap - 1) / censusSourceCap
	}
	var scan BFSResult
	var sumHops, pairs float64
	for src := 0; src < n; src += stride {
		scan.Run(g, NodeID(src), -1)
		for _, v := range scan.Visited[1:] {
			sumHops += float64(scan.Dist[v])
		}
		pairs += float64(len(scan.Visited) - 1)
		c.Diameter = max(c.Diameter, len(scan.level)-1)
	}
	if pairs > 0 {
		c.AvgHops = sumHops / pairs
	}
	if n > 0 {
		c.LargestComponentFrac = float64(len(g.LargestComponent())) / float64(n)
	}
	c.MeanClustering = g.meanClustering()
	return c
}

func (g *Graph) meanClustering() float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	var sum float64
	for u := 0; u < n; u++ {
		adj := g.adj[u]
		k := len(adj)
		if k < 2 {
			continue
		}
		// Count closed neighbor pairs by intersecting u's sorted adjacency
		// with each neighbor's: Σ_v |adj(u) ∩ adj(v)| visits every closed
		// pair {a,b} twice (once from v=a, once from v=b). The sorted merge
		// is O(deg(u)+deg(v)) per neighbor, replacing the O(deg²·log deg)
		// pairwise Adjacent probes that dominated the census at high density.
		twiceClosed := 0
		for _, v := range adj {
			twiceClosed += sortedIntersectionCount(adj, g.adj[v])
		}
		sum += float64(twiceClosed) / float64(k*(k-1))
	}
	return sum / float64(n)
}

// sortedIntersectionCount returns |a ∩ b| for sorted slices a and b.
func sortedIntersectionCount(a, b []NodeID) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

func (c Census) String() string {
	return fmt.Sprintf("N=%d links=%d degree=%.2f diameter=%d avgHops=%.2f lcc=%.2f",
		c.N, c.Links, c.MeanDegree, c.Diameter, c.AvgHops, c.LargestComponentFrac)
}

// UniformPositions places n nodes uniformly at random in area.
func UniformPositions(n int, area geom.Rect, rng *xrand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Range(0, area.W), Y: rng.Range(0, area.H)}
	}
	return pts
}
