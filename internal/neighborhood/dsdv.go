package neighborhood

import (
	"fmt"
	"sort"

	"card/internal/eventq"
	"card/internal/manet"
	"card/internal/par"
)

// DSDVConfig parameterizes the scoped distance-vector protocol.
type DSDVConfig struct {
	// Period is the full-dump interval in seconds (default 1).
	Period float64
	// ExpireAfter is the soft-state lifetime of a route entry in seconds;
	// entries not refreshed within it are purged. This is how destinations
	// that drift beyond R hops (without any link on the old path breaking)
	// leave the neighborhood. Default 3×Period.
	ExpireAfter float64
	// TriggeredUpdates, when true (default via DefaultDSDV), broadcasts
	// broken-route advertisements immediately on link-break detection
	// instead of waiting for the next periodic dump.
	TriggeredUpdates bool
}

// DefaultDSDV returns the configuration used by the examples: 1 s dumps,
// 3 s expiry, triggered updates on.
func DefaultDSDV() DSDVConfig {
	return DSDVConfig{Period: 1, ExpireAfter: 3, TriggeredUpdates: true}
}

func (c *DSDVConfig) fill() error {
	if c.Period == 0 {
		c.Period = 1
	}
	if c.Period < 0 {
		return fmt.Errorf("neighborhood: negative DSDV period %v", c.Period)
	}
	if c.ExpireAfter == 0 {
		c.ExpireAfter = 3 * c.Period
	}
	if c.ExpireAfter < c.Period {
		return fmt.Errorf("neighborhood: ExpireAfter %v shorter than Period %v", c.ExpireAfter, c.Period)
	}
	return nil
}

// dsdvEntry is one routing-table row: destination-sequenced distance vector
// per Perkins & Bhagwat. Even sequence numbers mark reachable routes; odd
// ones mark breaks, so that "route died" news outruns stale good news.
type dsdvEntry struct {
	metric  int32 // hops to dest; broken == infinity (represented r+1)
	next    NodeID
	seq     uint32
	touched float64 // last refresh time, for soft-state expiry
}

// DSDV is a hop-limited destination-sequenced distance-vector protocol: the
// proactive intra-neighborhood substrate the paper assumes. Every node
// periodically broadcasts its table (entries with metric < R); receivers
// adopt fresher-sequence or shorter-equal-sequence routes. Link breaks
// detected at topology refresh raise the destination sequence to an odd
// value and (optionally) trigger an immediate advertisement.
type DSDV struct {
	net *manet.Network
	r   int
	cfg DSDVConfig

	now       float64
	tables    []map[NodeID]*dsdvEntry
	ownSeq    []uint32
	neighbors []map[NodeID]struct{} // last observed neighbor sets

	// Per-node caches for the Provider facade, invalidated on any table
	// mutation of the owning node: sorted member lists plus the R-hop edge
	// subset, matching the Provider contract.
	dirty   []bool
	members [][]NodeID
	edges   [][]NodeID
}

// NewDSDV creates the protocol instance over net with radius r. Call Start
// to schedule its periodic behavior on an event queue, or drive it manually
// with Round / DetectBreaks in tests.
func NewDSDV(net *manet.Network, r int, cfg DSDVConfig) (*DSDV, error) {
	if r < 1 {
		return nil, fmt.Errorf("neighborhood: radius %d < 1", r)
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := net.N()
	d := &DSDV{
		net:       net,
		r:         r,
		cfg:       cfg,
		tables:    make([]map[NodeID]*dsdvEntry, n),
		ownSeq:    make([]uint32, n),
		neighbors: make([]map[NodeID]struct{}, n),
		dirty:     make([]bool, n),
		members:   make([][]NodeID, n),
		edges:     make([][]NodeID, n),
	}
	for i := 0; i < n; i++ {
		d.tables[i] = map[NodeID]*dsdvEntry{
			NodeID(i): {metric: 0, next: NodeID(i), seq: 0},
		}
		d.neighbors[i] = make(map[NodeID]struct{})
		d.dirty[i] = true
		d.observeNeighbors(NodeID(i))
	}
	return d, nil
}

// R implements Provider.
func (d *DSDV) R() int { return d.r }

func (d *DSDV) observeNeighbors(u NodeID) {
	set := d.neighbors[u]
	clear(set)
	for _, v := range d.net.Neighbors(u) {
		set[v] = struct{}{}
	}
}

// Start schedules the periodic full dumps of all nodes on q. Dumps are
// staggered uniformly across the first period so the network does not
// synchronize, mirroring real deployments.
func (d *DSDV) Start(q *eventq.Queue) {
	n := d.net.N()
	for i := 0; i < n; i++ {
		u := NodeID(i)
		offset := d.net.Rng().Range(0, d.cfg.Period)
		q.Every(offset, d.cfg.Period, func(now float64) {
			d.now = now
			d.dump(u, false)
		})
	}
}

// Round performs one synchronous full-dump round (every node advertises
// once, in id order) at time now. Convenient for tests and for converging a
// static network: R rounds always suffice.
func (d *DSDV) Round(now float64) {
	d.now = now
	for i := 0; i < d.net.N(); i++ {
		d.dump(NodeID(i), false)
	}
}

// Converge runs rounds until no table changes, up to maxRounds. It returns
// the number of rounds executed. Intended for static networks.
func (d *DSDV) Converge(now float64, maxRounds int) int {
	for round := 1; round <= maxRounds; round++ {
		before := d.tableFingerprint()
		d.Round(now)
		if d.tableFingerprint() == before {
			return round
		}
	}
	return maxRounds
}

// tableFingerprint summarizes the route structure (dest, metric, next hop)
// of all tables for convergence detection. Sequence numbers and timestamps
// are deliberately excluded: they advance every round even at the fixed
// point.
func (d *DSDV) tableFingerprint() uint64 {
	var h uint64 = 14695981039346656037 // FNV offset basis
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for u, tab := range d.tables {
		mix(uint64(u) + 1)
		// Order-independent accumulation: XOR of per-entry hashes.
		var acc uint64
		//cardlint:ordered commutative XOR accumulation; visit order cannot reach the hash
		for dst, e := range tab {
			eh := uint64(dst+1)*0x9e3779b97f4a7c15 ^ uint64(e.metric+1)*0xc2b2ae3d27d4eb4f ^ uint64(e.next+2)
			acc ^= eh
		}
		mix(acc)
	}
	return h
}

// dump broadcasts u's table to its current neighbors. brokenOnly restricts
// the advertisement to infinite-metric entries (triggered update).
func (d *DSDV) dump(u NodeID, brokenOnly bool) {
	tab := d.tables[u]
	if !brokenOnly {
		// A periodic dump advertises a fresh own sequence number.
		d.ownSeq[u] += 2
		own := tab[u]
		own.seq = d.ownSeq[u]
		own.touched = d.now
	}
	d.net.Broadcast(manet.CatDSDV)
	inf := int32(d.r + 1)
	for _, v := range d.net.Neighbors(u) {
		//cardlint:ordered each advertised entry mutates only the receiver's row for its own dst; rows are disjoint and reads never cross entries
		for dst, e := range tab {
			if e.metric >= inf {
				// Broken routes are always advertised (metric stays
				// infinite, odd sequence).
				d.receive(v, u, dst, inf, e.seq)
				continue
			}
			if brokenOnly {
				continue
			}
			if int(e.metric) < d.r { // metric+1 must stay within scope
				d.receive(v, u, dst, e.metric+1, e.seq)
			}
		}
	}
	d.expire(u)
}

// receive applies one advertised route (dst reachable via from at metric m,
// sequence seq) to v's table.
func (d *DSDV) receive(v, from, dst NodeID, m int32, seq uint32) {
	if dst == v {
		return // never override the self route
	}
	tab := d.tables[v]
	inf := int32(d.r + 1)
	e, ok := tab[dst]
	if !ok {
		if m >= inf {
			return // no point learning a dead route to an unknown dest
		}
		tab[dst] = &dsdvEntry{metric: m, next: from, seq: seq, touched: d.now}
		d.dirty[v] = true
		return
	}
	switch {
	case seqNewer(seq, e.seq):
		changed := e.metric != m || e.next != from
		e.metric, e.next, e.seq = m, from, seq
		e.touched = d.now
		if changed {
			d.dirty[v] = true
		}
	case seq == e.seq && m < e.metric:
		e.metric, e.next = m, from
		e.touched = d.now
		d.dirty[v] = true
	case seq == e.seq && m == e.metric && e.next == from:
		e.touched = d.now // same route refreshed
	}
}

// seqNewer reports whether a is a strictly fresher sequence number than b,
// tolerating wraparound.
func seqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// expire drops u's soft-state entries that have not been refreshed within
// ExpireAfter. Broken entries are also garbage-collected here once stale.
func (d *DSDV) expire(u NodeID) {
	tab := d.tables[u]
	//cardlint:ordered per-dst keep/delete decisions depend only on that entry's timestamp; deletions are of the current key only
	for dst, e := range tab {
		if dst == u {
			continue
		}
		if d.now-e.touched > d.cfg.ExpireAfter {
			delete(tab, dst)
			d.dirty[u] = true
		}
	}
}

// DetectBreaks must be called after each topology refresh: every node
// compares its neighbor set against the last observation, marks routes via
// vanished neighbors broken (odd sequence), and — with TriggeredUpdates —
// immediately advertises the breaks.
func (d *DSDV) DetectBreaks(now float64) {
	d.now = now
	n := d.net.N()
	inf := int32(d.r + 1)
	var triggered []NodeID
	for i := 0; i < n; i++ {
		u := NodeID(i)
		lost := false
		cur := make(map[NodeID]struct{}, len(d.net.Neighbors(u)))
		for _, v := range d.net.Neighbors(u) {
			cur[v] = struct{}{}
		}
		//cardlint:ordered membership tests against cur plus a commutative lost flag; no order-sensitive state
		for v := range d.neighbors[u] {
			if _, still := cur[v]; !still {
				lost = true
				//cardlint:ordered a route row has one next hop, so at most one vanished v breaks it; row mutations are disjoint across the scan
				for dst, e := range d.tables[u] {
					if e.next == v && e.metric < inf && dst != u {
						e.metric = inf
						e.seq++ // odd: break owned by the detecting node
						e.touched = now
						d.dirty[u] = true
					}
				}
			}
		}
		d.neighbors[u] = cur
		if lost && d.cfg.TriggeredUpdates {
			triggered = append(triggered, u)
		}
	}
	for _, u := range triggered {
		d.dump(u, true)
	}
}

// entryLive reports whether e is a usable (finite) route.
func (d *DSDV) entryLive(e *dsdvEntry) bool { return int(e.metric) <= d.r }

func (d *DSDV) refreshCache(u NodeID) {
	if !d.dirty[u] {
		return
	}
	members := d.members[u][:0]
	edges := d.edges[u][:0]
	//cardlint:ordered both collected slices are sorted below before the Provider facade exposes them
	for dst, e := range d.tables[u] {
		if !d.entryLive(e) {
			continue
		}
		members = append(members, dst)
		if int(e.metric) == d.r {
			edges = append(edges, dst)
		}
	}
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	sort.Slice(edges, func(a, b int) bool { return edges[a] < edges[b] })
	d.members[u] = members
	d.edges[u] = edges
	d.dirty[u] = false
}

// Members implements Provider.
func (d *DSDV) Members(u NodeID) []NodeID {
	d.refreshCache(u)
	return d.members[u]
}

// Contains implements Provider.
func (d *DSDV) Contains(u, x NodeID) bool {
	e, ok := d.tables[u][x]
	return ok && d.entryLive(e)
}

// Dist implements Provider.
func (d *DSDV) Dist(u, x NodeID) int {
	e, ok := d.tables[u][x]
	if !ok || !d.entryLive(e) {
		return -1
	}
	return int(e.metric)
}

// AppendRoute implements Provider. The route is assembled by chaining
// next-hop pointers through intermediate tables, exactly as packets would
// be forwarded; during convergence the chain may be inconsistent, in which
// case ok is false.
func (d *DSDV) AppendRoute(dst []NodeID, u, x NodeID) ([]NodeID, bool) {
	if u == x {
		return append(dst, u), true
	}
	e, ok := d.tables[u][x]
	if !ok || !d.entryLive(e) {
		return dst, false
	}
	path := append(dst, u)
	cur := u
	for steps := 0; steps <= d.r+1; steps++ {
		ce, ok := d.tables[cur][x]
		if !ok || !d.entryLive(ce) {
			return dst, false
		}
		nxt := ce.next
		path = append(path, nxt)
		if nxt == x {
			return path, true
		}
		cur = nxt
	}
	return dst, false // loop or over-length chain: not converged
}

// EdgeNodes implements Provider.
func (d *DSDV) EdgeNodes(u NodeID) []NodeID {
	d.refreshCache(u)
	return d.edges[u]
}

// StampCover implements Provider.
func (d *DSDV) StampCover(u NodeID, stamp []uint64, gen uint64) {
	stampResidentCover(d, u, stamp, gen)
}

// WarmAll implements Warmer: it rebuilds every dirty per-node cache so the
// Provider facade is read-only until the next Round/DetectBreaks. Contains
// and Dist read the tables directly and are always safe between rounds;
// warming additionally covers Members, EdgeNodes and StampCover.
func (d *DSDV) WarmAll() {
	par.Do(len(d.tables), func(i int) { d.refreshCache(NodeID(i)) })
}

var (
	_ Provider = (*DSDV)(nil)
	_ Warmer   = (*DSDV)(nil)
)
