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
	// Holder is the target the answering table listed — its nearest, ties
	// to the lowest id. It is meaningless when Found is false.
	Holder NodeID
}

// Querier executes CARD queries against a protocol snapshot without
// touching any shared mutable state: visited markers and message tallies
// live in the Querier itself. Between topology refreshes and maintenance
// rounds, any number of Queriers may run concurrently over the same
// Protocol (the engine's BatchQuery does exactly that — one Querier per
// worker). A query reads no neighborhood view — it asks the provider once
// which nodes know a target (StampWatchers) — so nothing needs warming.
//
// A Querier is single-goroutine; message tallies accumulate locally until
// Flush hands them to the network recorder. Keep one alive across
// batches: its walk memo is what makes the second visit to a contact
// within a snapshot free.
type Querier struct {
	p *Protocol

	// visited is the per-DSQ "this contact has seen query q" marker, epoch
	// stamped to avoid clearing between walks.
	visited  []uint64
	visitGen uint64

	// watch marks (with watchGen) the nodes whose neighborhood holds a
	// current target, watchDist their distance to the nearest and
	// watchHolder which one that is: one StampWatchers call per lookup
	// answers the source's and every leaf contact's table lookup.
	// watchQueue is its BFS scratch; one backs Query's one-target set.
	watch       []uint64
	watchDist   []uint8
	watchHolder []NodeID
	watchGen    uint64
	watchQueue  []NodeID
	one         [1]NodeID

	// memo caches stored-route walk outcomes, direct-mapped by contact
	// slot and valid for one (network epoch, table generation) pair, within
	// which TryHop is pure and no route changes; memoGen advances when the
	// pair does, so stale entries die without a sweep. Fixed size, so the
	// footprint is independent of N·NoC, and allocated by the first remote
	// query, so a Querier that only resolves locally never pays for it.
	memo      []walkMemo
	memoGen   uint64
	memoEpoch uint64
	memoTable uint64

	// Locally accumulated transmission tallies, flushed on demand.
	pend manet.Counters
}

// walkMemo is one remembered walk of the stored route in slot: what it
// charged and whether it reached the contact.
type walkMemo struct {
	gen       uint64 // Querier.memoGen (≥ 1) at record time; 0 = empty
	slot      int
	queries   int32
	retries   int32
	delivered bool
}

// walkMemoSize is the memo's entry count (a power of two). One lookup at
// depth 3 touches a few hundred slots, contiguous per owner, so collisions
// inside a lookup are rare; one that happens costs a re-walk, nothing else.
const walkMemoSize = 4096

// NewQuerier creates an independent query executor over p.
func (p *Protocol) NewQuerier() *Querier {
	n := p.net.N()
	return &Querier{
		p:           p,
		visited:     make([]uint64, n),
		watch:       make([]uint64, n),
		watchDist:   make([]uint8, n),
		watchHolder: make([]NodeID, n),
		memoGen:     1,
	}
}

// Flush adds the locally accumulated query/reply/retry tallies to the
// network recorder and zeroes them. Call after a batch completes (or per
// query for live accounting); with concurrent Queriers, flush serially
// after the fan-out joins.
func (q *Querier) Flush() {
	q.pend.AddTo(q.p.net.Recorder())
	q.pend.Reset()
}

// Query runs the Destination Search Query mechanism of §III.C.4 from u
// for target: Resolve over the one-element set. The source first checks
// its own neighborhood table, then escalates DSQs of increasing depth
// D = 1..cfg.Depth through its contacts, each contact leveraging its own
// neighborhood knowledge (and, for D > 1, forwarding to its contacts with
// D-1).
//
// Matching the paper's "one at a time" semantics, contacts are queried
// sequentially with early termination on the first hit; an unanswered
// depth-D sweep is followed by a fresh depth-(D+1) DSQ.
func (q *Querier) Query(u, target NodeID) QueryResult {
	q.one[0] = target
	return q.Resolve(u, q.one[:])
}

// Resolve runs one CARD destination search (see Query for the
// mechanism) from u for any of targets — the holders of the resource the
// DSQ names. The set is stamped once; the source answers from its own
// table if it lists a target, and otherwise one escalation runs in which a
// queried contact answers as soon as its table does. An empty set is a
// resource nobody holds: no DSQ is sent for it.
func (q *Querier) Resolve(u NodeID, targets []NodeID) QueryResult {
	p := q.p
	if len(targets) == 0 {
		return QueryResult{PathHops: -1}
	}
	q.watchGen++
	q.watchQueue = p.nb.StampWatchers(q.watchQueue, targets, q.watch, q.watchDist, q.watchHolder, q.watchGen)
	if q.watch[u] == q.watchGen {
		// Resolved from u's own table (u included, at distance 0): no traffic.
		return QueryResult{Found: true, Depth: 0, PathHops: int(q.watchDist[u]), Holder: q.watchHolder[u]}
	}
	if q.memo == nil {
		q.memo = make([]walkMemo, walkMemoSize)
	}
	if e := p.net.Epoch(); e != q.memoEpoch || p.tableGen != q.memoTable {
		q.memoEpoch, q.memoTable = e, p.tableGen
		q.memoGen++
	}
	before := q.sent()
	for depth := 1; depth <= p.cfg.Depth; depth++ {
		q.visitGen++
		// The source has already checked its own neighborhood: mark it
		// visited so a contact whose table points back at u does not walk
		// the query home and charge wasted transmissions.
		q.visited[u] = q.visitGen
		if hops, leaf := q.dsq(u, depth); leaf >= 0 {
			return QueryResult{
				Found:    true,
				Depth:    depth,
				Messages: q.sent() - before,
				PathHops: hops + int(q.watchDist[leaf]),
				Holder:   q.watchHolder[leaf],
			}
		}
	}
	return QueryResult{Messages: q.sent() - before, PathHops: -1}
}

// sent is the query and reply traffic tallied since the last Flush.
func (q *Querier) sent() int64 {
	return q.pend.Get(manet.CatQuery) + q.pend.Get(manet.CatReply)
}

// dsq delivers a depth-limited DSQ to v's contacts, one at a time. It
// returns the leaf contact whose table lists a target (-1 if none does)
// and the hop length of the contact chain from v to it. Each contact — and
// the source itself, stamped per escalation in Resolve — is visited at
// most once per escalation attempt (q.visitGen), preventing the contact
// graph's cycles from amplifying traffic or walking the query back home.
func (q *Querier) dsq(v NodeID, depth int) (hops int, leaf NodeID) {
	p := q.p
	t := &p.tables[v]
	cs := t.Contacts()
	for i := range cs {
		c := &cs[i]
		if q.visited[c.ID] == q.visitGen {
			continue
		}
		q.visited[c.ID] = q.visitGen
		if !q.walkSlot(t.base()+i, c.Path) {
			continue // stored path broken under mobility: this DSQ dies
		}
		hops, leaf = 0, c.ID
		if depth == 1 {
			if q.watch[c.ID] != q.watchGen {
				continue
			}
		} else if hops, leaf = q.dsq(c.ID, depth-1); leaf < 0 {
			continue
		}
		q.pend.Record(manet.CatReply, int64(c.Hops()))
		return c.Hops() + hops, leaf
	}
	return 0, -1
}

// walkSlot walks the route stored in contact slot, at most once per memo
// generation. The walk follows TryHop's accounting contract for CatQuery
// traffic: each attempted hop counts one query transmission plus its lossy
// retransmissions, and it stops at the first hop that is asymmetric,
// broken, or out of retries. TryHop is a pure function of (epoch, edge,
// attempt), so the recorded outcome is what any later walk of the same
// slot in this generation — by this or a concurrent Querier — would yield.
// Hit or miss, the entry's tallies are charged the same way below, so a hit
// cannot change a total; a colliding slot simply overwrites the entry.
func (q *Querier) walkSlot(slot int, path []NodeID) bool {
	m := &q.memo[slot&(len(q.memo)-1)]
	if m.gen != q.memoGen || m.slot != slot {
		*m = walkMemo{gen: q.memoGen, slot: slot, delivered: true}
		net := q.p.net
		for i := 0; i+1 < len(path); i++ {
			att, delivered := net.TryHop(path[i], path[i+1])
			if att > 0 {
				m.queries++
				m.retries += int32(att - 1)
			}
			if !delivered {
				m.delivered = false
				break
			}
		}
	}
	q.pend.Record(manet.CatQuery, int64(m.queries))
	q.pend.Record(manet.CatRetry, int64(m.retries))
	return m.delivered
}
