package neighborhood

import (
	"slices"
	"sync"

	"card/internal/manet"
	"card/internal/par"
	"card/internal/topology"
)

// Oracle provides the converged R-hop neighborhood view over the network's
// current topology snapshot. Views are computed lazily per node and cached
// until the network epoch changes, so mobile simulations pay only for the
// nodes actually queried between refreshes.
//
// # Compact views
//
// A view stores only the ball it describes — sorted member ids with
// parallel distance and BFS-parent columns — never an N-sized array. At
// 100k nodes the old representation (full BFS Dist/Parent arrays plus an
// N-bit membership set per view) would have cost ~800 KB per node, ~80 GB
// warm; the compact view is O(|ball|), a few KB. Lookups binary-search the
// member column; routes are reconstructed by chaining parents.
//
// # Retention across refreshes
//
// By default every refresh (epoch bump) invalidates every view. Engines
// running dirty-set maintenance instead call Retain with the set of nodes
// whose R-ball may have changed, keeping all other views alive across the
// refresh. The views kept are bit-identical to freshly computed ones: a
// view depends only on the subgraph within R hops of its node, so it can
// only change if some adjacency list inside that ball changed — and any
// such node is within R hops of an adjacency-changed node along a path
// that survives in both snapshots, so the caller's R-expansion of the
// adjacency diff provably covers it.
type Oracle struct {
	net *manet.Network
	r   int

	epoch uint64
	views []*oracleView // indexed by node, nil = not yet computed this epoch

	// missing tracks which views WarmAll still has to materialize, so a
	// warm call after Retain costs O(dropped), never an O(N) nil sweep.
	// allMissing covers the epoch-wipe / initial state where every view is
	// absent; when it is false, missing is a superset of the nil views
	// (on-demand computes fill a view without delisting it; duplicates
	// from repeated drops are compacted before the warm fan-out).
	missing    []NodeID
	allMissing bool

	// scratch pools the per-BFS stamp arrays: view computation runs from
	// WarmAll's worker fan-out, and the scratch contents never influence
	// the (purely graph-determined) view, so pooling is determinism-safe.
	scratch sync.Pool
}

// oracleView is one node's R-ball in structure-of-arrays form: members is
// sorted ascending, and dist/parent are parallel to it. edges lists the
// members at exactly R hops in BFS discovery order (the order the old
// full-array implementation produced, which the contact-selection shuffle
// seeds against).
type oracleView struct {
	members []NodeID
	dist    []uint8
	parent  []NodeID
	edges   []NodeID
}

// find returns the members index of x, or -1.
func (v *oracleView) find(x NodeID) int {
	i, ok := slices.BinarySearch(v.members, x)
	if !ok {
		return -1
	}
	return i
}

// oracleScratch is the reusable BFS workspace: generation-stamped visit
// markers plus full-size distance/parent columns, compacted into the
// O(ball) view on completion.
type oracleScratch struct {
	stamp  []uint64
	gen    uint64
	dist   []uint8
	parent []NodeID
	order  []NodeID // BFS discovery order; doubles as the queue
}

// NewOracle creates an oracle neighborhood provider with radius r over net.
func NewOracle(net *manet.Network, r int) *Oracle {
	if r < 1 {
		panic("neighborhood: radius must be >= 1")
	}
	if r > 255 {
		panic("neighborhood: radius exceeds uint8 distance column")
	}
	o := &Oracle{
		net:        net,
		r:          r,
		epoch:      net.Epoch(),
		views:      make([]*oracleView, net.N()),
		allMissing: true,
	}
	n := net.N()
	o.scratch.New = func() any {
		return &oracleScratch{
			stamp:  make([]uint64, n),
			dist:   make([]uint8, n),
			parent: make([]NodeID, n),
		}
	}
	return o
}

// R implements Provider.
func (o *Oracle) R() int { return o.r }

// invalidate drops cached views if the topology moved on.
func (o *Oracle) invalidate() {
	if e := o.net.Epoch(); e != o.epoch {
		o.epoch = e
		for i := range o.views {
			o.views[i] = nil
		}
		o.allMissing = true
		o.missing = o.missing[:0]
	}
}

// Retain advances the oracle to the network's current epoch while keeping
// every view except those of the listed nodes, which are dropped and
// recomputed on next use. Call immediately after a topology refresh,
// before any view is read; changed must include every node whose R-hop
// ball could differ between the two snapshots (the engine derives it by
// R-expanding the builder's adjacency diff — see the type comment for why
// that is sound). Duplicates in changed are harmless.
func (o *Oracle) Retain(changed []NodeID) {
	o.epoch = o.net.Epoch()
	for _, u := range changed {
		if o.views[u] == nil {
			continue // never computed, or already dropped and listed
		}
		o.views[u] = nil
		if !o.allMissing {
			o.missing = append(o.missing, u)
		}
	}
}

// compute builds u's view from the current snapshot (pure read of the
// graph; safe to run concurrently for distinct nodes).
func (o *Oracle) compute(u NodeID) *oracleView {
	s := o.scratch.Get().(*oracleScratch)
	v := computeView(o.net.Graph(), o.r, u, s)
	o.scratch.Put(s)
	return v
}

// computeView runs the R-bounded BFS for u over g into the reusable
// scratch and compacts the result into an O(ball) view. Pure function of
// the graph — every caller (Oracle, ViewCache, any worker) gets the
// bit-identical view for the same snapshot.
func computeView(g *topology.Graph, r int, u NodeID, s *oracleScratch) *oracleView {
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
	for _, v := range s.order {
		if s.dist[v] == rr {
			edgeCount++
		}
	}
	view := &oracleView{
		members: make([]NodeID, k),
		dist:    make([]uint8, k),
		parent:  make([]NodeID, k),
	}
	if edgeCount > 0 {
		view.edges = make([]NodeID, 0, edgeCount)
		// Edge nodes in BFS discovery order, like the old implementation.
		for _, v := range s.order {
			if s.dist[v] == rr {
				view.edges = append(view.edges, v)
			}
		}
	}
	copy(view.members, s.order)
	slices.Sort(view.members)
	for i, v := range view.members {
		view.dist[i] = s.dist[v]
		view.parent[i] = s.parent[v]
	}
	return view
}

func (o *Oracle) view(u NodeID) *oracleView {
	o.invalidate()
	if v := o.views[u]; v != nil {
		return v
	}
	v := o.compute(u)
	o.views[u] = v
	return v
}

// WarmAll implements Warmer: it materializes every missing view for the
// current snapshot, fanning the per-node BFS across workers. Afterwards
// every Provider method is a pure read until the next epoch. Under
// Retain-driven retention only the dropped views are listed and
// recomputed — the warm call is O(dropped) work AND dispatch, so a quiet
// refresh costs nothing; only an epoch wipe (or the first warm) pays the
// O(N) fan-out.
func (o *Oracle) WarmAll() {
	o.invalidate()
	if o.allMissing {
		par.Do(len(o.views), func(i int) {
			if o.views[i] == nil {
				o.views[i] = o.compute(NodeID(i))
			}
		})
		o.allMissing = false
		o.missing = o.missing[:0]
		return
	}
	if len(o.missing) == 0 {
		return
	}
	// Dedup before the fan-out: a view dropped, recomputed on demand and
	// dropped again is listed twice, and two workers must never race on
	// one slot.
	slices.Sort(o.missing)
	miss := slices.Compact(o.missing)
	par.Do(len(miss), func(i int) {
		if u := miss[i]; o.views[u] == nil {
			o.views[u] = o.compute(u)
		}
	})
	o.missing = o.missing[:0]
}

// Members implements Provider.
func (o *Oracle) Members(u NodeID) []NodeID { return o.view(u).members }

// Contains implements Provider.
func (o *Oracle) Contains(u, x NodeID) bool { return o.view(u).find(x) >= 0 }

// Dist implements Provider.
func (o *Oracle) Dist(u, x NodeID) int {
	v := o.view(u)
	i := v.find(x)
	if i < 0 {
		return -1
	}
	return int(v.dist[i])
}

// AppendRoute implements Provider.
func (o *Oracle) AppendRoute(dst []NodeID, u, x NodeID) ([]NodeID, bool) {
	return o.view(u).appendRoute(dst, x)
}

// appendRoute reconstructs the BFS path to x by chaining parents, into
// dst's spare capacity when it has any (ok=false if x is outside the
// ball).
func (v *oracleView) appendRoute(dst []NodeID, x NodeID) ([]NodeID, bool) {
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
func (o *Oracle) EdgeNodes(u NodeID) []NodeID { return o.view(u).edges }

// StampCover implements Provider.
func (o *Oracle) StampCover(u NodeID, stamp []uint64, gen uint64) {
	stampResidentCover(o, u, stamp, gen)
}

var (
	_ Provider = (*Oracle)(nil)
	_ Warmer   = (*Oracle)(nil)
)
