package card

import (
	"card/internal/manet"
)

// QueryResult reports one resource-discovery attempt.
type QueryResult struct {
	// Found reports whether a path to the target was returned.
	Found bool
	// Depth is the contact level at which the target was found: 0 means
	// the source's own neighborhood, 1 a first-level contact, and so on.
	// It is meaningless when Found is false.
	Depth int
	// Messages is the number of control messages (queries + replies) this
	// attempt generated.
	Messages int64
	// PathHops is the length of the discovered source→target path through
	// the contact chain, or -1 when not found.
	PathHops int
}

// Query runs the Destination Search Query mechanism of §III.C.4: the
// source first checks its own neighborhood table, then escalates DSQs of
// increasing depth D = 1..cfg.Depth through its contacts, each contact
// leveraging its own neighborhood knowledge (and, for D > 1, forwarding to
// its contacts with D-1).
//
// Matching the paper's "one at a time" semantics, contacts are queried
// sequentially with early termination on the first hit; an unanswered
// depth-D sweep is followed by a fresh depth-(D+1) DSQ.
//
// Query is the serial entry point: it runs on the protocol's own scratch
// and flushes message tallies to the network recorder immediately. For
// concurrent fan-outs, create one [Querier] per worker instead.
func (p *Protocol) Query(u, target NodeID) QueryResult {
	res := p.querier.Query(u, target)
	p.querier.Flush()
	return res
}

// Querier executes CARD queries against a protocol snapshot without
// touching any shared mutable state: visited markers and message tallies
// live in the Querier itself. Between topology refreshes and maintenance
// rounds, any number of Queriers may run concurrently over the same
// Protocol (the engine's BatchQuery does exactly that — one Querier per
// worker); the fan-out warms the neighborhood views first, see
// neighborhood.Warm.
//
// A Querier is single-goroutine; message tallies accumulate locally until
// Flush hands them to the network recorder.
type Querier struct {
	p *Protocol

	// visited is the per-DSQ "this contact has seen query q" marker, epoch
	// stamped to avoid clearing between walks.
	visited  []uint64
	visitGen uint64

	// Locally accumulated transmission tallies, flushed on demand.
	pendingQuery int64
	pendingReply int64
	pendingRetry int64
}

// NewQuerier creates an independent query executor over p.
func (p *Protocol) NewQuerier() *Querier {
	return &Querier{p: p, visited: make([]uint64, p.net.N())}
}

// Protocol returns the protocol this Querier executes against, for callers
// (like the resource layer) that need the neighborhood views alongside the
// query path.
func (q *Querier) Protocol() *Protocol { return q.p }

// Flush adds the locally accumulated query/reply tallies to the network
// recorder and zeroes them. Call after a batch completes (or per query for
// live accounting); with concurrent Queriers, flush serially after the
// fan-out joins unless the recorder is concurrency-safe.
func (q *Querier) Flush() {
	if q.pendingQuery != 0 {
		q.p.net.Record(manet.CatQuery, q.pendingQuery)
		q.pendingQuery = 0
	}
	if q.pendingReply != 0 {
		q.p.net.Record(manet.CatReply, q.pendingReply)
		q.pendingReply = 0
	}
	if q.pendingRetry != 0 {
		q.p.net.Record(manet.CatRetry, q.pendingRetry)
		q.pendingRetry = 0
	}
}

// Query runs one CARD destination search from u for target. See
// Protocol.Query for the mechanism.
func (q *Querier) Query(u, target NodeID) QueryResult {
	p := q.p
	if u == target {
		return QueryResult{Found: true, Depth: 0, PathHops: 0}
	}
	if p.nb.Contains(u, target) {
		// Resolved from the local neighborhood table: no control traffic.
		return QueryResult{Found: true, Depth: 0, PathHops: p.nb.Dist(u, target)}
	}
	before := q.pendingQuery + q.pendingReply
	for depth := 1; depth <= p.cfg.Depth; depth++ {
		q.visitGen++
		// The source has already checked its own neighborhood: mark it
		// visited so a contact whose table points back at u does not walk
		// the query home and charge wasted transmissions.
		q.visited[u] = q.visitGen
		if hops, ok := q.dsq(u, target, depth); ok {
			return QueryResult{
				Found:    true,
				Depth:    depth,
				Messages: q.pendingQuery + q.pendingReply - before,
				PathHops: hops,
			}
		}
	}
	return QueryResult{
		Found:    false,
		Messages: q.pendingQuery + q.pendingReply - before,
		PathHops: -1,
	}
}

// dsq delivers a depth-limited DSQ to v's contacts, one at a time. It
// returns the hop length of the found path from v to the target via the
// contact chain. Each contact — and the source itself, stamped per
// escalation in Query — is visited at most once per escalation attempt
// (q.visitGen), preventing the contact graph's cycles from amplifying
// traffic or walking the query back to where it started.
func (q *Querier) dsq(v, target NodeID, depth int) (int, bool) {
	p := q.p
	cs := p.tables[v].Contacts()
	for i := range cs {
		c := &cs[i]
		if q.visited[c.ID] == q.visitGen {
			continue
		}
		q.visited[c.ID] = q.visitGen
		if !q.walkPath(c.Path) {
			continue // stored path broken under mobility: this DSQ dies
		}
		if depth == 1 {
			if p.nb.Contains(c.ID, target) {
				if !p.cfg.DisableReplyCounting {
					q.pendingReply += int64(c.Hops())
				}
				return c.Hops() + p.nb.Dist(c.ID, target), true
			}
			continue
		}
		if sub, found := q.dsq(c.ID, target, depth-1); found {
			if !p.cfg.DisableReplyCounting {
				q.pendingReply += int64(c.Hops())
			}
			return c.Hops() + sub, true
		}
	}
	return 0, false
}

// walkPath mirrors manet.Network.WalkPath for CatQuery traffic but tallies
// into the Querier's local counters: each attempted hop counts one query
// transmission plus its lossy retransmissions, and the walk stops at the
// first hop that is asymmetric, broken, or out of retries. TryHop is a
// pure function of (epoch, edge, attempt), so concurrent Queriers see
// identical outcomes regardless of scheduling.
func (q *Querier) walkPath(path []NodeID) bool {
	net := q.p.net
	for i := 0; i+1 < len(path); i++ {
		att, delivered := net.TryHop(path[i], path[i+1])
		if att > 0 {
			q.pendingQuery++
			q.pendingRetry += int64(att - 1)
		}
		if !delivered {
			return false
		}
	}
	return true
}
