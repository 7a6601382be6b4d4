// Package neighborhood implements the R-hop proactive zone that every CARD
// node maintains: "each node proactively (using a protocol such as DSDV)
// maintains state for all the nodes in its neighborhood" (§III.C).
//
// The zone is modeled as the converged view — an R-hop BFS ball over the
// current topology snapshot — exactly as the paper's analysis treats it:
// its reachability and overhead figures deliberately exclude the
// proactive scheme's own update traffic. One struct stores the views
// ([Table], behind the [Provider] interface CARD consumes); it keeps
// either every view ([NewOracle]) or at most a cap of them
// ([NewViewCache]), with bit-identical answers either way. No
// distance-vector protocol is simulated; DESIGN.md says why.
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
	// the next topology refresh; callers must not mutate it. Membership
	// is O(ball), never O(N): at 100k nodes a view is a few hundred
	// entries, which is why the interface trades the old N-bit set for a
	// dense sorted list.
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
	// cover is the 2R-hop out-ball of u (see Table.StampCover), which
	// lets a capped table produce it without materializing any edge
	// node's view.
	StampCover(u NodeID, stamp []uint64, gen uint64)
	// StampWatchers answers "does u know a target, which, and how far" for
	// every u at once without materializing any view: for each u with
	// Contains(u, x) for some x in targets it sets stamp[u] = gen, dist[u]
	// to the smallest Dist(u, x) and origin[u] to the lowest-id target at
	// that distance (so neither order nor repeats in targets matter), and
	// it writes no other entry. The arrays are caller-owned and indexed by
	// node id, and no entry of stamp may carry gen on entry (it doubles as
	// the visit mark). queue is the caller's reusable BFS scratch,
	// AppendRoute-style: overwritten, and returned (possibly grown) for the
	// next call, so a steady-state caller allocates nothing. See
	// Table.StampWatchers for why the set is the targets' R-hop in-ball.
	StampWatchers(queue, targets []NodeID, stamp []uint64, dist []uint8, origin []NodeID, gen uint64) []NodeID
}

// Warmer is implemented by the provider that keeps every view resident
// (Oracle). WarmAll materializes every node's view for the current
// topology snapshot, after which the Provider's read methods are pure
// hits until the next topology refresh. A capped table does not
// implement it, and callers recognise an on-demand provider by that.
type Warmer interface {
	WarmAll()
}

// Warm materializes the views a fan-out will read; a capped table faults
// them in under its own synchronization, so it has nothing to warm.
func Warm(p Provider) {
	if w, ok := p.(Warmer); ok {
		w.WarmAll()
	}
}
