package neighborhood

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"card/internal/manet"
	"card/internal/par"
	"card/internal/topology"
)

// Table is the neighborhood substrate: the converged R-hop view of every
// node over the network's current topology snapshot, one slot per node,
// filled on first read and kept until the snapshot it describes is gone.
// A Table implements Provider; NewOracle and NewViewCache build it under
// its two residency policies (keep every view / keep at most cap).
//
// # Compact views
//
// A view stores only the ball it describes — sorted member ids with
// parallel distance and BFS-parent columns — never an N-sized array. At
// 100k nodes a representation with full BFS Dist/Parent arrays plus an
// N-bit membership set per view would cost ~800 KB per node, ~80 GB
// warm; the compact view is O(|ball|), a few KB. Lookups binary-search the
// member column; routes are reconstructed by chaining parents.
//
// # Determinism
//
// A view is a pure function of the current topology snapshot, and
// lookups perform no accounting — so residency policy (what is resident,
// what was evicted, which goroutine computed a view first) cannot
// influence any simulation result. Every lookup returns bit-identical
// data at every cap over the same snapshot; the capped-vs-resident
// equivalence tests pin it. Evicted views stay valid for holders of
// their member slices (the arrays are immutable once built; eviction
// only drops the table's reference).
//
// # Concurrency
//
// Get-or-compute is safe from any number of workers: a hit is an epoch
// check and one atomic slot load; a miss runs its BFS outside any lock
// and publishes by compare-and-swap — racing computes of one view
// produce identical results and the loser's copy is simply dropped. Only
// the residency ring and the stale-epoch wipe take the mutex, and only
// on a miss. Retain is serial-only.
//
// # Retention across refreshes
//
// By default every refresh (epoch bump) invalidates every view: the first
// lookup afterwards observes the epoch change and wipes the slots.
// Engines running dirty-set maintenance instead call Retain with the set
// of nodes whose R-ball may have changed, keeping all other views alive
// across the refresh. The views kept are bit-identical to freshly
// computed ones: a view depends only on the subgraph within R hops of its
// node, so it can only change if some adjacency list inside that ball
// changed — and any such node is within R hops of an adjacency-changed
// node along a path that survives in both snapshots, so the caller's
// R-expansion of the adjacency diff provably covers it.
type Table struct {
	net *manet.Network
	r   int

	// epoch is the network epoch the resident views belong to, advanced
	// by Retain (serial) or by the lock-guarded wipe on first stale read.
	epoch atomic.Uint64

	// slots holds one view per node; nil = not resident. Published by
	// compare-and-swap: which worker's identical copy wins cannot alter
	// a result (cardlint does not flag atomics for the same reason).
	slots []atomic.Pointer[view]

	// mu serializes the stale-epoch wipe (concurrent first readers after
	// an un-Retained refresh wipe exactly once) and guards ring.
	//
	//cardlint:parallel residency guard, taken only on a miss; views are pure functions of the snapshot, so lock order cannot alter simulation results
	mu sync.Mutex

	// ring bounds residency when cap > 0: the ids of the last cap
	// published views in publish order, the oldest evicted to make room.
	// FIFO rather than LRU so that a hit touches nothing shared. An id
	// Retain dropped stays listed until its turn (evicting it then clears
	// a slot that is empty or was refilled — either way residency only
	// shrinks), so non-nil slots ≤ listed ids ≤ cap, plus the views
	// concurrent misses have published but not yet listed.
	cap      int
	ring     []NodeID
	ringHead int // index of the oldest entry once len(ring) == cap

	// missing lists the views WarmAll still has to materialize (cap 0
	// only), so a warm call after Retain costs O(dropped), never an O(N)
	// nil sweep. allMissing covers the epoch-wipe / initial state where
	// every view is absent; when it is false, missing is a superset of the
	// nil slots (on-demand computes fill a slot without delisting it, and
	// a view dropped, refilled on demand and dropped again is listed
	// twice — two warm workers then publish the same slot, which the
	// compare-and-swap makes harmless).
	missing    []NodeID
	allMissing bool

	// scratch pools the per-BFS stamp arrays: view computation runs from
	// worker fan-outs, and the scratch contents never influence the
	// (purely graph-determined) view, so pooling is determinism-safe.
	scratch sync.Pool
}

// Oracle is the full-residency table: every view stays resident until its
// snapshot is gone, which is what makes warming meaningful — after
// WarmAll every read is a hit. It is the only form that implements
// Warmer. The Table is embedded by value so a promoted read stays one
// inlined hop.
type Oracle struct {
	Table
}

// view is one node's R-ball in structure-of-arrays form: members is
// sorted ascending, and dist/parent are parallel to it. edges lists the
// members at exactly R hops in BFS discovery order (the order the
// contact-selection shuffle seeds against).
type view struct {
	members []NodeID
	dist    []uint8
	parent  []NodeID
	edges   []NodeID
}

// find returns the members index of x, or -1.
func (v *view) find(x NodeID) int {
	i, ok := slices.BinarySearch(v.members, x)
	if !ok {
		return -1
	}
	return i
}

// bfsScratch is the reusable BFS workspace: generation-stamped visit
// markers plus full-size distance/parent columns, compacted into the
// O(ball) view on completion.
type bfsScratch struct {
	stamp  []uint64
	gen    uint64
	dist   []uint8
	parent []NodeID
	order  []NodeID // BFS discovery order; doubles as the queue
}

// NewOracle creates the full-residency neighborhood table with radius r
// over net.
func NewOracle(net *manet.Network, r int) *Oracle {
	o := &Oracle{}
	o.init(net, r, 0)
	return o
}

// NewViewCache creates a capped on-demand table with radius r keeping at
// most maxResident views materialized. It is the memory half of the
// 1M-node story — every view of a million-node field at R=2 is gigabytes,
// almost all of which a restricted maintenance round never reads. It
// deliberately does not implement Warmer: warming would re-introduce the
// per-round O(N) sweep, and misses synchronize themselves.
func NewViewCache(net *manet.Network, r, maxResident int) *Table {
	if maxResident < 1 {
		panic(fmt.Sprintf("neighborhood: non-positive view cache capacity %d", maxResident))
	}
	t := &Table{}
	t.init(net, r, maxResident)
	return t
}

func (t *Table) init(net *manet.Network, r, maxResident int) {
	if r < 1 {
		panic("neighborhood: radius must be >= 1")
	}
	if r > 255 {
		// card.Config.Validate rejects it first on every configured path.
		panic("neighborhood: radius exceeds uint8 distance column")
	}
	n := net.N()
	t.net, t.r, t.cap = net, r, maxResident
	t.slots = make([]atomic.Pointer[view], n)
	t.allMissing = true
	t.epoch.Store(net.Epoch())
	t.scratch.New = func() any {
		return &bfsScratch{
			stamp:  make([]uint64, n),
			dist:   make([]uint8, n),
			parent: make([]NodeID, n),
		}
	}
}

// R implements Provider.
func (t *Table) R() int { return t.r }

// view returns u's view for the current snapshot. The hit path is the
// whole body — no frame, no lock — and everything a miss needs is one
// call away, so a read through the Provider interface stays one call
// deep (Members and EdgeNodes inline into the interface wrapper).
func (t *Table) view(u NodeID) *view {
	if t.epoch.Load() == t.net.Epoch() {
		if v := t.slots[u].Load(); v != nil {
			return v
		}
	}
	return t.miss(u)
}

// miss computes and publishes u's view. Safe for concurrent use; the BFS
// runs outside the lock.
func (t *Table) miss(u NodeID) *view {
	t.sync()
	s := t.scratch.Get().(*bfsScratch)
	v := computeView(t.net.Graph(), t.r, u, s)
	t.scratch.Put(s)
	if !t.slots[u].CompareAndSwap(nil, v) {
		if w := t.slots[u].Load(); w != nil {
			return w // another worker won the compute race; both views are identical
		}
		return v // ... and was evicted already
	}
	if t.cap > 0 {
		t.mu.Lock()
		if len(t.ring) < t.cap {
			t.ring = append(t.ring, u)
		} else {
			t.slots[t.ring[t.ringHead]].Store(nil)
			t.ring[t.ringHead] = u
			t.ringHead = (t.ringHead + 1) % t.cap
		}
		t.mu.Unlock()
	}
	return v
}

// sync wipes every slot once when the network epoch moved on without a
// Retain call. Concurrent readers double-check under mu; none publishes
// before the wipe is complete, because each passes through here first.
func (t *Table) sync() {
	e := t.net.Epoch()
	if t.epoch.Load() == e {
		return
	}
	t.mu.Lock()
	if t.epoch.Load() != e {
		for i := range t.slots {
			t.slots[i].Store(nil)
		}
		t.ring, t.ringHead = t.ring[:0], 0
		t.missing, t.allMissing = t.missing[:0], true
		t.epoch.Store(e)
	}
	t.mu.Unlock()
}

// Retain advances the table to the network's current epoch while keeping
// every view except those of the listed nodes, which are dropped and
// recomputed on next use. Call immediately after a topology refresh,
// before any view is read and any concurrent reader starts; changed must
// include every node whose R-hop ball could differ between the two
// snapshots (the engine derives it by R-expanding the builder's adjacency
// diff — see the type comment for why that is sound). Duplicates in
// changed are harmless.
func (t *Table) Retain(changed []NodeID) {
	for _, u := range changed {
		if t.slots[u].Load() == nil {
			continue // never computed, or already dropped and listed
		}
		t.slots[u].Store(nil)
		if t.cap == 0 && !t.allMissing {
			t.missing = append(t.missing, u)
		}
	}
	if len(t.missing) > len(t.slots) {
		// Nobody warms (serial rounds and query fan-outs fault views in on
		// demand, and every refill is re-listed when dropped again): fall
		// back to the sweep instead of growing the list without bound.
		t.missing, t.allMissing = t.missing[:0], true
	}
	t.epoch.Store(t.net.Epoch())
}

// WarmAll implements Warmer: it materializes every missing view for the
// current snapshot, fanning the per-node BFS across workers. Afterwards
// every Provider method is a hit until the next epoch. Under
// Retain-driven retention only the dropped views are listed and
// recomputed — the warm call is O(dropped) work AND dispatch, so a quiet
// refresh costs nothing; only an epoch wipe (or the first warm) pays the
// O(N) fan-out.
func (o *Oracle) WarmAll() {
	o.sync()
	switch {
	case o.allMissing:
		par.Do(len(o.slots), func(i int) { o.view(NodeID(i)) })
	case len(o.missing) > 0:
		par.Do(len(o.missing), func(i int) { o.view(o.missing[i]) })
	}
	o.allMissing, o.missing = false, o.missing[:0]
}

// computeView runs the R-bounded BFS for u over g into the reusable
// scratch and compacts the result into an O(ball) view. Pure function of
// the graph — every caller (any table, any worker) gets the bit-identical
// view for the same snapshot.
func computeView(g *topology.Graph, r int, u NodeID, s *bfsScratch) *view {
	s.gen++
	gen := s.gen
	s.order = s.order[:0]
	s.stamp[u] = gen
	s.dist[u] = 0
	s.parent[u] = topology.None
	s.order = append(s.order, u)
	rr := uint8(r)
	for head := 0; head < len(s.order); head++ {
		x := s.order[head]
		if s.dist[x] == rr {
			continue
		}
		for _, y := range g.Neighbors(x) {
			if s.stamp[y] == gen {
				continue
			}
			s.stamp[y] = gen
			s.dist[y] = s.dist[x] + 1
			s.parent[y] = x
			s.order = append(s.order, y)
		}
	}
	k := len(s.order)
	edgeCount := 0
	for _, x := range s.order {
		if s.dist[x] == rr {
			edgeCount++
		}
	}
	v := &view{
		members: make([]NodeID, k),
		dist:    make([]uint8, k),
		parent:  make([]NodeID, k),
	}
	if edgeCount > 0 {
		v.edges = make([]NodeID, 0, edgeCount)
		// Edge nodes in BFS discovery order: the selection shuffle is
		// seeded against it.
		for _, x := range s.order {
			if s.dist[x] == rr {
				v.edges = append(v.edges, x)
			}
		}
	}
	copy(v.members, s.order)
	slices.Sort(v.members)
	for i, x := range v.members {
		v.dist[i] = s.dist[x]
		v.parent[i] = s.parent[x]
	}
	return v
}

// Members implements Provider.
func (t *Table) Members(u NodeID) []NodeID { return t.view(u).members }

// Contains implements Provider.
func (t *Table) Contains(u, x NodeID) bool { return t.view(u).find(x) >= 0 }

// Dist implements Provider.
func (t *Table) Dist(u, x NodeID) int {
	v := t.view(u)
	i := v.find(x)
	if i < 0 {
		return -1
	}
	return int(v.dist[i])
}

// AppendRoute implements Provider: it reconstructs the BFS path to x by
// chaining parents, into dst's spare capacity when it has any.
func (t *Table) AppendRoute(dst []NodeID, u, x NodeID) ([]NodeID, bool) {
	v := t.view(u)
	i := v.find(x)
	if i < 0 {
		return dst, false
	}
	d := int(v.dist[i])
	base := len(dst)
	dst = slices.Grow(dst, d+1)[:base+d+1]
	path := dst[base:]
	path[d] = x
	for j := d; j > 0; j-- {
		p := v.parent[i]
		path[j-1] = p
		i = v.find(p)
	}
	return dst, true
}

// EdgeNodes implements Provider.
func (t *Table) EdgeNodes(u NodeID) []NodeID { return t.view(u).edges }

// StampCover implements Provider. Its two bodies are selected by the
// table's own residency, and both are kept because each wins where it
// runs: with every view resident the literal union is one pass over
// lists that already exist (the 2R BFS measured +8 % per round on the 5k
// city workload); under a cap the union would compute, sort, allocate and
// evict a view per edge node, whose views the caller only ever wanted as
// stamp lists — one 2R-bounded BFS from u reads no view at all.
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
func (t *Table) StampCover(u NodeID, stamp []uint64, gen uint64) {
	if t.cap == 0 {
		v := t.view(u)
		for _, x := range v.members {
			stamp[x] = gen
		}
		for _, e := range v.edges {
			for _, x := range t.view(e).members {
				stamp[x] = gen
			}
		}
		return
	}
	g := t.net.Graph()
	s := t.scratch.Get().(*bfsScratch)
	// The BFS keeps its own visit marks: stamp may already carry gen.
	s.gen++
	s.stamp[u] = s.gen
	stamp[u] = gen
	s.order = append(s.order[:0], u)
	head := 0
	for depth := 0; depth < 2*t.r && head < len(s.order); depth++ {
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
	t.scratch.Put(s)
}

// StampWatchers implements Provider with one R-bounded, level-synchronous
// BFS over in-edges seeded with every target. It reads the live graph and
// no view, so it costs the same at every residency and tracks every epoch.
//
// Why the R-hop in-ball is the watcher set. With d(a,b) the out-distance
// of StampCover's proof, Contains(u, x) is d(u,x) ≤ R and Dist(u, x) is
// d(u,x). A u→x path over out-edges, reversed, is an x→u path over
// in-edges of the same length, and the other way round, so the BFS level
// at which the seeds first reach u over InNeighbors is exactly the least
// d(u,x) over targets x — for every u at once. On an undirected snapshot
// InNeighbors is Neighbors and the ball is the targets' own; churned-down
// nodes and barrier cuts are absent edges of the snapshot, as above.
//
// Why origin is the lowest-id nearest target, with no tie test in the
// loop. A target x at distance d from u is at distance d-1 from the next
// node of a shortest u→x path, so (by induction) origin[u] is the least
// origin among the level-(d-1) nodes that reach u. The seeds enter the
// queue in ascending id and a node inherits the origin of the parent that
// discovers it, so every level is queued in non-decreasing origin order —
// and the first parent to reach u is the one with the least origin.
func (t *Table) StampWatchers(queue, targets []NodeID, stamp []uint64, dist []uint8, origin []NodeID, gen uint64) []NodeID {
	g := t.net.Graph()
	queue = append(queue[:0], targets...)
	slices.Sort(queue)
	queue = slices.Compact(queue)
	for _, x := range queue {
		stamp[x], dist[x], origin[x] = gen, 0, x
	}
	head := 0
	for d := 1; d <= t.r && head < len(queue); d++ {
		for end := len(queue); head < end; head++ {
			from := origin[queue[head]]
			for _, y := range g.InNeighbors(queue[head]) {
				if stamp[y] != gen {
					stamp[y], dist[y], origin[y] = gen, uint8(d), from
					queue = append(queue, y)
				}
			}
		}
	}
	return queue
}

var (
	_ Provider = (*Table)(nil)
	_ Provider = (*Oracle)(nil)
	_ Warmer   = (*Oracle)(nil)
)
