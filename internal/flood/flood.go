// Package flood implements the flooding resource-discovery baseline the
// paper compares against (§IV.D), plus TTL-bounded and expanding-ring
// variants, as one Search over a breadth-first scan.
//
// Flooding model: the source broadcasts the query; every node hearing it
// for the first time rebroadcasts once (duplicate suppression). Each
// rebroadcast is one radio transmission, so a ring of TTL t costs one
// transmission per node closer than t hops (minus the target, which
// answers instead of relaying); nodes exactly t hops out receive without
// relaying. The reply unicasts back along the reverse shortest path.
//
// A ring reached within t hops is the first t levels of the unbounded
// scan from the source, so the whole escalation is read off one scan the
// caller owns and reuses. Search accounts on the [manet.Counters] it is
// handed: serial callers pass net.Recorder(); the scheme layer's workers
// pass a private tally and flush it serially after the join, so
// flooding queries fan out across workers with bit-identical totals — the
// same local-tally recipe card.Querier established.
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

// Search runs the expanding-ring search for target over scan, an
// unbounded scan from the querying node taken on the current snapshot:
// successive floods with the TTLs of ttls (t < 0 floods the whole
// component) until a ring covers the target or the last ring fails. Every
// ring charges its relays to CatQuery; the ring that finds the target also
// charges, when countReply is set, the unicast reply path to CatReply.
// Messages is the cumulative escalation cost. The schedule {-1} is plain
// flooding, and the target topology.None is the dead search: every ring
// floods, nobody answers — a cost that depends on the source's component
// alone. The paper's §III.C.4 contrasts CARD's directed escalation against
// exactly this mechanism.
func Search(rec *manet.Counters, scan *topology.BFSResult, target NodeID, ttls []int, countReply bool) Result {
	hops := -1
	if target != topology.None {
		hops = int(scan.Dist[target])
	}
	var relays int64
	for _, ttl := range ttls {
		relays += int64(scan.Within(ttl))
		if hops < 0 || (ttl >= 0 && hops > ttl) {
			continue
		}
		if ttl < 0 || hops < ttl {
			relays-- // the target answers; it does not relay
		}
		rec.Record(manet.CatQuery, relays)
		res := Result{Found: true, Messages: relays, PathHops: hops}
		if countReply {
			rec.Record(manet.CatReply, int64(hops))
			res.Messages += int64(hops)
		}
		return res
	}
	rec.Record(manet.CatQuery, relays)
	return Result{Messages: relays, PathHops: -1}
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
