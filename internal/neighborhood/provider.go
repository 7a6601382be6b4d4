// Package neighborhood implements the R-hop proactive zone that every CARD
// node maintains: "each node proactively (using a protocol such as DSDV)
// maintains state for all the nodes in its neighborhood" (§III.C).
//
// Two providers are offered:
//
//   - [Oracle] — the converged view: R-hop BFS over the current topology
//     snapshot, cached per network epoch. This matches how the paper's
//     analysis treats the neighborhood (its overhead metrics deliberately
//     exclude proactive-update traffic), and is the default for experiment
//     runs.
//   - [DSDV] — an actual scoped destination-sequenced distance-vector
//     protocol: per-destination sequence numbers, periodic full dumps,
//     triggered updates on link breaks, hop-limited to R. It exists to
//     demonstrate and test the substrate end to end; on a static network it
//     provably converges to the Oracle view.
package neighborhood

import (
	"card/internal/topology"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Provider is the neighborhood view CARD consumes.
//
// By convention a node is a member of its own neighborhood (distance 0);
// this makes reachability unions self-consistent.
type Provider interface {
	// R returns the neighborhood radius in hops.
	R() int
	// Members returns the nodes of u's neighborhood (u included), sorted
	// ascending by id. The slice is owned by the provider and valid until
	// the next topology refresh or substrate round; callers must not
	// mutate it. Membership is O(ball), never O(N): at 100k nodes a view
	// is a few hundred entries, which is why the interface trades the old
	// N-bit set for a dense sorted list.
	Members(u NodeID) []NodeID
	// Contains reports whether x lies in u's neighborhood.
	Contains(u, x NodeID) bool
	// Dist returns the hop distance from u to x if x is in u's
	// neighborhood, else -1.
	Dist(u, x NodeID) int
	// AppendRoute appends the intra-neighborhood route u→x, inclusive of
	// both endpoints, to dst and returns the extended slice; ok is false
	// (and dst is returned as passed) if x is outside u's neighborhood.
	// Callers on a hot path pass reusable scratch; AppendRoute(nil, u, x)
	// allocates a fresh route.
	AppendRoute(dst []NodeID, u, x NodeID) (route []NodeID, ok bool)
	// EdgeNodes returns the nodes at exactly R hops from u ("edge nodes"
	// in the paper). The slice is owned by the provider; do not mutate.
	EdgeNodes(u NodeID) []NodeID
	// StampCover sets stamp[x] = gen for every x of u's edge cover,
	// Members(u) ∪ ⋃ Members(e) over e in EdgeNodes(u) — the set the edge
	// method excludes from contact-hood — and writes nothing else. stamp
	// is caller-owned and indexed by node id. On an exact provider the
	// cover is the 2R-hop out-ball of u (see ViewCache.StampCover), which
	// lets an on-demand provider produce it without materializing any
	// edge node's view.
	StampCover(u NodeID, stamp []uint64, gen uint64)
}

// stampResidentCover is StampCover for providers that keep every member
// list resident (Oracle, DSDV): the literal union, one pass over the
// lists. For DSDV mid-convergence it is also the only correct form — its
// tables need not describe balls of any one graph.
func stampResidentCover(p Provider, u NodeID, stamp []uint64, gen uint64) {
	for _, x := range p.Members(u) {
		stamp[x] = gen
	}
	for _, e := range p.EdgeNodes(u) {
		for _, x := range p.Members(e) {
			stamp[x] = gen
		}
	}
}

// Warmer is implemented by providers whose per-node views are computed
// lazily (and therefore mutate internal caches on first read). WarmAll
// materializes every node's view for the current topology snapshot, after
// which the Provider's read methods are safe to call from multiple
// goroutines until the next topology refresh or protocol round. The
// engine's batch query fan-out warms providers before going parallel.
type Warmer interface {
	WarmAll()
}

// Overlaps reports whether the neighborhoods of a and b intersect — the
// paper's overlap predicate between a candidate contact and the source (or
// a previously selected contact). The sorted member lists are merged
// directly, O(|ball(a)|+|ball(b)|), independent of network size.
func Overlaps(p Provider, a, b NodeID) bool {
	x, y := p.Members(a), p.Members(b)
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			return true
		}
	}
	return false
}
