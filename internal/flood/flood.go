// Package flood implements the flooding resource-discovery baseline the
// paper compares against (§IV.D), plus TTL-bounded and expanding-ring
// variants.
//
// Flooding model: the source broadcasts the query; every node hearing it
// for the first time rebroadcasts once (duplicate suppression). Each
// rebroadcast is one radio transmission, so a query costs one transmission
// per reached node (minus the target, which answers instead of relaying).
// The reply unicasts back along the reverse shortest path.
//
// Every primitive accounts on the [manet.Recorder] it is handed. Serial
// callers pass net.Recorder(); the scheme layer's workers pass a private
// Counters and flush it serially after the join, so flooding queries fan
// out across workers with bit-identical totals — the same local-tally
// recipe card.Querier established. Results and tallies are pure functions
// of the current snapshot, so concurrent calls with private recorders are
// race-free and order-independent.
package flood

import (
	"card/internal/manet"
	"card/internal/topology"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Result reports one flooding query.
type Result struct {
	// Found reports whether the target was reached.
	Found bool
	// Messages is the number of control messages the query generated
	// (query transmissions plus, when counted, reply hops).
	Messages int64
	// PathHops is the shortest-path length source→target, or -1.
	PathHops int
}

// Query floods at most ttl hops from src for target (ttl < 0 floods the
// whole component). Relays charge CatQuery; countReply also charges the
// unicast reply path to CatReply and includes it in the message count.
// The target topology.None is a flood nobody answers: every reached node
// relays and the query dies.
func Query(net *manet.Network, rec manet.Recorder, src, target NodeID, ttl int, countReply bool) Result {
	bfs := net.Graph().BoundedBFS(src, ttl)
	found := target != topology.None && bfs.Dist[target] >= 0
	var relays int64
	for _, v := range bfs.Visited {
		if found && v == target {
			continue // the target answers; it does not relay
		}
		if ttl >= 0 && int(bfs.Dist[v]) >= ttl {
			continue // leaf of the bounded flood: receives, does not relay
		}
		relays++
	}
	rec.Record(manet.CatQuery, relays)
	res := Result{Found: found, Messages: relays, PathHops: -1}
	if found {
		res.PathHops = int(bfs.Dist[target])
		if countReply {
			rec.Record(manet.CatReply, int64(res.PathHops))
			res.Messages += int64(res.PathHops)
		}
	}
	return res
}

// Flood charges one full duplicate-suppressed flood from src with no
// responder: every node in src's connected component (src included)
// rebroadcasts exactly once, so the cost is the component size. This is
// the canonical dead-search cost of the flooding baseline — a query for a
// resource no reachable node holds floods everywhere and dies. Unlike
// Query with an unreachable proxy target, the charge depends only on src's
// component, never on which unreachable node a caller happens to name.
func Flood(net *manet.Network, rec manet.Recorder, src NodeID) Result {
	return Query(net, rec, src, topology.None, -1, false)
}

// RingSweep charges a full expanding-ring escalation with no responder:
// every TTL ring floods and fails, so the search pays each bounded ring
// (interior nodes relay, ring-edge leaves receive without relaying) and —
// under the standard DoublingTTLs schedule — ends in one unbounded
// component flood. This is the deterministic dead-search cost of the
// expanding-ring baseline, a function of src's component alone.
func RingSweep(net *manet.Network, rec manet.Recorder, src NodeID, ttls []int) Result {
	return ExpandingRing(net, rec, src, topology.None, ttls, false)
}

// ExpandingRing performs the classic expanding-ring search: successive
// floods with growing TTLs until the target is found or the last ring
// fails. The paper's §III.C.4 contrasts CARD's directed escalation against
// exactly this mechanism. Each failed ring charges its own relays exactly
// once; the final successful ring charges its relays plus (when counted)
// the reply path, and the returned Messages is the cumulative escalation
// cost.
func ExpandingRing(net *manet.Network, rec manet.Recorder, src, target NodeID, ttls []int, countReply bool) Result {
	r := Result{PathHops: -1}
	var total int64
	for _, ttl := range ttls {
		r = Query(net, rec, src, target, ttl, countReply)
		total += r.Messages
		if r.Found {
			break
		}
	}
	r.Messages = total
	return r
}

// DoublingTTLs returns the TTL schedule 1, 2, 4, ... capped at max, ending
// with an unbounded flood (-1), the standard expanding-ring schedule.
func DoublingTTLs(max int) []int {
	var ttls []int
	for t := 1; t < max; t *= 2 {
		ttls = append(ttls, t)
	}
	return append(ttls, -1)
}
