package neighborhood

import (
	"fmt"
	"sync"
	"sync/atomic"

	"card/internal/manet"
)

// ViewCache is the capped-residency neighborhood provider: the same
// R-hop views as Oracle, but at most MaxResident of them materialized at
// once, held in sharded LRU caches and computed on demand. It is the
// memory half of the 1M-node story — a warm Oracle at R=2 over a
// million-node field is gigabytes of resident views, almost all of which
// a restricted maintenance round never reads.
//
// # Determinism
//
// A view is a pure function of the current topology snapshot, and
// lookups perform no accounting — so cache policy (what is resident,
// what was evicted, which goroutine computed a view first) cannot
// influence any simulation result. Every lookup returns bit-identical
// data to a fresh Oracle over the same snapshot; the cross-provider
// equivalence test pins it. Evicted views stay valid for holders of
// their member slices (the arrays are immutable once built; eviction
// only drops the cache's reference).
//
// # Concurrency
//
// Unlike Oracle — which relies on WarmAll pre-materializing every view
// before a worker fan-out — ViewCache is internally synchronized:
// get-or-compute is safe from any number of workers, so it deliberately
// does NOT implement Warmer (warming would re-introduce the per-round
// O(N) sweep; the engine's warm hook skips providers without it). The
// BFS runs outside the stripe lock; racing computes of one view produce
// identical results and the loser's copy is simply dropped.
//
// # Retention
//
// Retain matches Oracle.Retain: drop only the listed views, keep the
// rest across the epoch bump. Without Retain (non-dirty engines), the
// first lookup after a refresh observes the epoch change and wipes every
// stripe.
type ViewCache struct {
	net *manet.Network
	r   int

	// epoch is the network epoch the resident views belong to, advanced
	// by Retain (serial) or by a lock-guarded wipe on first stale read.
	epoch atomic.Uint64

	// wipeMu serializes the stale-epoch wipe so concurrent first readers
	// after an un-Retained refresh wipe exactly once.
	//
	//cardlint:parallel cache-consistency guard; views are pure functions of the snapshot, so lock order cannot alter simulation results
	wipeMu sync.Mutex

	stripes []cacheStripe

	// scratch pools the BFS workspace exactly like Oracle.
	scratch sync.Pool
}

// cacheStripe is one lock shard: nodes map onto stripes by low id bits,
// and each stripe runs an independent LRU over its residents.
type cacheStripe struct {
	//cardlint:parallel stripe guard for the shared view cache; lookups are pure reads of graph-determined data, so contention order is result-neutral
	mu      sync.Mutex
	cap     int
	entries map[NodeID]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // eviction candidate
}

// cacheEntry is an intrusive LRU node.
type cacheEntry struct {
	key        NodeID
	view       *oracleView
	prev, next *cacheEntry
}

// cacheStripeCount shards the cache 64 ways: enough that a full worker
// fan-out rarely collides on a stripe lock, small enough that per-stripe
// LRU capacity stays meaningful.
const cacheStripeCount = 64

// NewViewCache creates a capped on-demand provider with radius r keeping
// at most maxResident views materialized (rounded up to one per stripe).
func NewViewCache(net *manet.Network, r, maxResident int) *ViewCache {
	if r < 1 {
		panic("neighborhood: radius must be >= 1")
	}
	if r > 255 {
		panic("neighborhood: radius exceeds uint8 distance column")
	}
	if maxResident < 1 {
		panic(fmt.Sprintf("neighborhood: non-positive view cache capacity %d", maxResident))
	}
	c := &ViewCache{net: net, r: r, stripes: make([]cacheStripe, cacheStripeCount)}
	perStripe := (maxResident + cacheStripeCount - 1) / cacheStripeCount
	for i := range c.stripes {
		c.stripes[i] = cacheStripe{cap: perStripe, entries: make(map[NodeID]*cacheEntry)}
	}
	c.epoch.Store(net.Epoch())
	n := net.N()
	c.scratch.New = func() any {
		return &oracleScratch{
			stamp:  make([]uint64, n),
			dist:   make([]uint8, n),
			parent: make([]NodeID, n),
		}
	}
	return c
}

// R implements Provider.
func (c *ViewCache) R() int { return c.r }

// sync wipes every stripe once when the network epoch moved on without a
// Retain call. Concurrent readers double-check under wipeMu.
func (c *ViewCache) sync() {
	e := c.net.Epoch()
	if c.epoch.Load() == e {
		return
	}
	c.wipeMu.Lock()
	if c.epoch.Load() != e {
		for i := range c.stripes {
			s := &c.stripes[i]
			s.mu.Lock()
			clear(s.entries)
			s.head, s.tail = nil, nil
			s.mu.Unlock()
		}
		c.epoch.Store(e)
	}
	c.wipeMu.Unlock()
}

// Retain advances the cache to the network's current epoch keeping every
// resident view except the listed nodes' — the same contract as
// Oracle.Retain (see there for why retained views stay bit-identical).
// Serial-only: call from the engine loop right after a refresh, before
// any concurrent reader.
func (c *ViewCache) Retain(changed []NodeID) {
	for _, u := range changed {
		s := c.stripe(u)
		s.mu.Lock()
		if e := s.entries[u]; e != nil {
			s.unlink(e)
			delete(s.entries, u)
		}
		s.mu.Unlock()
	}
	c.epoch.Store(c.net.Epoch())
}

func (c *ViewCache) stripe(u NodeID) *cacheStripe {
	return &c.stripes[int(u)&(cacheStripeCount-1)]
}

// view returns u's view, computing and caching it if absent. Safe for
// concurrent use; the BFS runs outside the stripe lock.
func (c *ViewCache) view(u NodeID) *oracleView {
	c.sync()
	s := c.stripe(u)
	s.mu.Lock()
	if e := s.entries[u]; e != nil {
		s.touch(e)
		v := e.view
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()

	sc := c.scratch.Get().(*oracleScratch)
	v := computeView(c.net.Graph(), c.r, u, sc)
	c.scratch.Put(sc)

	s.mu.Lock()
	if e := s.entries[u]; e != nil {
		// Another worker won the compute race; both views are identical.
		s.touch(e)
		v = e.view
		s.mu.Unlock()
		return v
	}
	e := &cacheEntry{key: u, view: v}
	s.entries[u] = e
	s.pushFront(e)
	if len(s.entries) > s.cap {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.key)
	}
	s.mu.Unlock()
	return v
}

func (s *cacheStripe) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheStripe) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheStripe) touch(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// Members implements Provider.
func (c *ViewCache) Members(u NodeID) []NodeID { return c.view(u).members }

// Contains implements Provider.
func (c *ViewCache) Contains(u, x NodeID) bool { return c.view(u).find(x) >= 0 }

// Dist implements Provider.
func (c *ViewCache) Dist(u, x NodeID) int {
	v := c.view(u)
	i := v.find(x)
	if i < 0 {
		return -1
	}
	return int(v.dist[i])
}

// AppendRoute implements Provider.
func (c *ViewCache) AppendRoute(dst []NodeID, u, x NodeID) ([]NodeID, bool) {
	return c.view(u).appendRoute(dst, x)
}

// EdgeNodes implements Provider.
func (c *ViewCache) EdgeNodes(u NodeID) []NodeID { return c.view(u).edges }

// StampCover implements Provider with one 2R-bounded BFS from u and no
// view lookup: nothing is computed, sorted, allocated or evicted on
// behalf of the edge nodes, whose views the caller only ever wanted as
// stamp lists.
//
// Why the 2R-hop out-ball is the cover. Views are BFS balls over the
// snapshot's out-adjacency (directed under per-node ranges), so write
// d(a,b) for out-distance: Members(a) = {x : d(a,x) ≤ R} and
// EdgeNodes(u) = {e : d(u,e) = R}.
//   - ball ⊆ cover: take x with d(u,x) = k ≤ 2R. If k ≤ R then x is in
//     Members(u). Otherwise the R-th node e of a shortest u→x path has
//     d(u,e) = R exactly (a prefix of a shortest path is shortest), so e
//     is an edge node, and the path's suffix gives d(e,x) ≤ k-R ≤ R.
//   - cover ⊆ ball: x in Members(e) has d(u,x) ≤ d(u,e) + d(e,x) ≤ 2R,
//     the triangle inequality, which holds for directed distance too.
//
// Churned-down nodes and barrier cuts are absent edges of the same
// snapshot, so they change the graph, not the argument.
func (c *ViewCache) StampCover(u NodeID, stamp []uint64, gen uint64) {
	g := c.net.Graph()
	s := c.scratch.Get().(*oracleScratch)
	// The BFS keeps its own visit marks: stamp may already carry gen.
	s.gen++
	s.stamp[u] = s.gen
	stamp[u] = gen
	s.order = append(s.order[:0], u)
	head := 0
	for depth := 0; depth < 2*c.r && head < len(s.order); depth++ {
		for end := len(s.order); head < end; head++ {
			for _, y := range g.Neighbors(s.order[head]) {
				if s.stamp[y] != s.gen {
					s.stamp[y] = s.gen
					stamp[y] = gen
					s.order = append(s.order, y)
				}
			}
		}
	}
	c.scratch.Put(s)
}

var _ Provider = (*ViewCache)(nil)
