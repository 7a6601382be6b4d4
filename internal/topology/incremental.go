package topology

import (
	"slices"

	"card/internal/geom"
)

// Builder is the one piece of code that turns positions into adjacency. It
// keeps its spatial-hash grid and adjacency lists alive between updates and
// reprocesses only the nodes that actually moved or flipped up/down state
// (plus their old and new neighbors). With m such nodes of mean degree d an
// update costs O(m·d) instead of O(N·d), which is what makes slow-churn
// scenarios (pausing waypoints, static sensor fields with a few mobile
// collectors) cheap at thousands of nodes.
//
// The Graph returned by Update aliases the Builder's internal storage and
// is invalidated by the next Update call. That matches how the simulator
// consumes snapshots — protocols re-fetch the graph from the network after
// every refresh, keyed by epoch — and avoids re-allocating O(N·d)
// adjacency every topology refresh.
type Builder struct {
	area geom.Rect
	lm   LinkModel
	maxR float64 // lm.Max(): the grid cell size, and Graph.TxRange
	grid *geom.Grid
	pos  []geom.Point
	// down mirrors the exclusion mask of the last update: down nodes live
	// outside the grid and carry no links.
	down []bool
	adj  [][]NodeID
	in   [][]NodeID // in-adjacency; nil unless lm.Directed()
	// adjTotal is the out-degree sum Σ len(adj[i]) (= 2·links undirected,
	// = links directed), maintained as a delta by incremental updates so
	// they never pay an O(N) recount.
	adjTotal int
	built    bool
	// barrierDirty forces the next update into a full rebuild after a
	// SetBarrier toggle, which flips arbitrarily many links at once.
	barrierDirty bool

	// Generation-stamped scratch: avoids clearing O(N) marker arrays on
	// every update.
	gen           uint64
	movedStamp    []uint64
	moved         []NodeID
	newOut, newIn []NodeID // rescanned lists of the node being processed

	// Changed-adjacency tracking for dirty-set consumers (engine
	// maintenance rounds, oracle view retention): after each update,
	// changed lists the nodes whose adjacency list differs from the
	// previous snapshot, unless changedAll marks a full (re)build where
	// every node must be assumed changed. See Changed.
	changedStamp []uint64
	changed      []NodeID
	changedAll   bool
}

// fullRebuildFraction is the moved-node fraction above which an update
// falls back to a full grid rebuild. The incremental path only pays for
// moved nodes and their neighborhoods (stationary lists are patched with
// O(degree) sorted inserts, never re-sorted), so it stays cheaper than a
// full rebuild until well past half the fleet moving at once.
const fullRebuildFraction = 0.6

// NewBuilder creates a builder for n nodes over area under the link model.
// The grid is bucketed by the model's maximum range, so a one-ring scan
// around a node covers every candidate within any node's radius (at the
// cost of scanning short-range nodes' buckets a little wide). A directed
// model maintains in-adjacency alongside out-adjacency. The first Update
// performs a full build.
func NewBuilder(n int, area geom.Rect, lm LinkModel) *Builder {
	lm.validate(n)
	b := &Builder{
		area:         area,
		lm:           lm,
		maxR:         lm.Max(),
		pos:          make([]geom.Point, n),
		down:         make([]bool, n),
		adj:          make([][]NodeID, n),
		movedStamp:   make([]uint64, n),
		changedStamp: make([]uint64, n),
	}
	b.grid = geom.NewGrid(area, b.maxR)
	if lm.Directed() {
		b.in = make([][]NodeID, n)
	}
	return b
}

// SetBarrier toggles the partition barrier configured in the builder's
// link model (no-op without one, or when the state is unchanged). The
// next update performs a full rebuild — a partition event flips
// arbitrarily many links among stationary nodes at once, so every node is
// reported changed.
func (b *Builder) SetBarrier(active bool) {
	if b.lm.BarrierX <= 0 || b.lm.BarrierActive == active {
		return
	}
	b.lm.BarrierActive = active
	b.barrierDirty = true
}

// N returns the number of nodes the builder tracks.
func (b *Builder) N() int { return len(b.pos) }

// Update brings the graph to the given positions (length must equal N) and
// exclusion mask (see Build) and returns the refreshed snapshot, which
// aliases builder storage and is invalidated by the next Update.
//
// dirty says where to look for change. A caller that knows which nodes may
// have moved or flipped up/down state — a lazy mobility stepper reporting
// its moved list, plus the churn flips — passes them: any superset will do
// and duplicates are fine, only the listed nodes are checked, and a refresh
// where nothing moved costs O(1). A nil dirty means the caller cannot say,
// and every node is checked against its previous position and state. Both
// ways arrive at the same moved set, hence the same full-rebuild decision
// and the same snapshot.
//
// State flips are handled like movement — a node going down is pulled from
// the grid and its neighbors' lists are patched; a node coming back up is
// re-inserted at its current position and rescanned — so churn costs
// O(flipped·degree) per refresh, not a rebuild.
func (b *Builder) Update(pos []geom.Point, down []bool, dirty []NodeID) *Graph {
	if len(pos) != len(b.pos) {
		panic("topology: Builder.Update with mismatched position count")
	}
	if down != nil && len(down) != len(b.pos) {
		panic("topology: Builder.Update with mismatched mask length")
	}
	b.changed, b.changedAll = b.changed[:0], false
	if !b.built || b.barrierDirty {
		b.fullBuild(pos, down)
		return b.snapshot()
	}
	b.gen++
	b.moved = b.moved[:0]
	if dirty == nil {
		for i := range pos {
			b.noteIfMoved(NodeID(i), pos, down)
		}
	} else {
		for _, m := range dirty {
			b.noteIfMoved(m, pos, down)
		}
	}
	switch {
	case len(b.moved) == 0:
	case float64(len(b.moved)) > fullRebuildFraction*float64(len(pos)):
		b.fullBuild(pos, down)
	default:
		b.incremental(pos, down)
	}
	return b.snapshot()
}

// noteIfMoved adds i to the moved set of the update in progress if its
// position or mask state differs from the builder's and it is not there
// already (the stamp absorbs duplicates in a caller's dirty list).
func (b *Builder) noteIfMoved(i NodeID, pos []geom.Point, down []bool) {
	if b.movedStamp[i] != b.gen && (pos[i] != b.pos[i] || isDown(down, int(i)) != b.down[i]) {
		b.movedStamp[i] = b.gen
		b.moved = append(b.moved, i)
	}
}

// fullBuild rebuilds grid and adjacency from scratch (reusing storage):
// every out-list is rescanned, and a directed model's in-lists are derived
// from them in one ascending pass, which leaves them sorted without a sort.
func (b *Builder) fullBuild(pos []geom.Point, down []bool) {
	b.built, b.barrierDirty = true, false
	copy(b.pos, pos)
	b.grid.Reset()
	for i, p := range b.pos {
		b.down[i] = isDown(down, i)
		if !b.down[i] {
			b.grid.Insert(int32(i), p)
		}
	}
	b.adjTotal = 0
	for u := range b.adj {
		b.adj[u] = b.scanOut(NodeID(u), b.adj[u])
		b.adjTotal += len(b.adj[u])
	}
	if b.in != nil {
		for i := range b.in {
			b.in[i] = b.in[i][:0]
		}
		for u, out := range b.adj {
			for _, v := range out {
				b.in[v] = append(b.in[v], NodeID(u))
			}
		}
	}
	b.changedAll = true
}

// scanOut returns, in buf's storage, the sorted list of nodes u transmits
// to: the up nodes within u's own range (the grid holds only up nodes, so
// candidates need no mask check; a down u reaches nobody). The barrier cut
// is a second pass over the short result, and only while a partition is
// active, which keeps the bucket loop free of anything but the distance
// test.
func (b *Builder) scanOut(u NodeID, buf []NodeID) []NodeID {
	dst := buf[:0]
	if b.down[u] {
		return dst
	}
	p, r := b.pos[u], b.lm.RangeOf(int(u))
	r2 := r * r
	x0, y0, x1, y1 := b.grid.BucketRange(p, r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, v := range b.grid.Bucket(x, y) {
				if v != u && p.Dist2(b.pos[v]) <= r2 {
					dst = append(dst, v)
				}
			}
		}
	}
	if b.lm.BarrierActive {
		dst = slices.DeleteFunc(dst, func(v NodeID) bool { return b.lm.cuts(p, b.pos[v]) })
	}
	// Deterministic neighbor order regardless of grid traversal.
	slices.Sort(dst)
	return dst
}

// scanIn returns, in buf's storage, the sorted list of nodes that transmit
// to u: a maximum-range scan in which each candidate's own range decides
// the v→u edge. Only directed models need it, and only for incremental
// updates — a full build derives the in-lists from the out-lists.
func (b *Builder) scanIn(u NodeID, buf []NodeID) []NodeID {
	dst := buf[:0]
	if b.down[u] {
		return dst
	}
	p := b.pos[u]
	x0, y0, x1, y1 := b.grid.BucketRange(p, b.maxR)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, v := range b.grid.Bucket(x, y) {
				if v == u || b.lm.cuts(p, b.pos[v]) {
					continue
				}
				if rv := b.lm.RangeOf(int(v)); p.Dist2(b.pos[v]) <= rv*rv {
					dst = append(dst, v)
				}
			}
		}
	}
	slices.Sort(dst)
	return dst
}

// incremental applies a subset-dirty update: re-bucket the moved (and
// state-flipped) nodes, rescan their neighborhoods via the grid, and patch
// stationary nodes' lists only where an edge actually appeared or
// disappeared. At fine sensing rates a moving node's displacement per
// refresh is a fraction of the radio range, so its edge set is usually
// unchanged and the patching step does no work at all — the steady-state
// cost is the dirty nodes' grid rescans.
func (b *Builder) incremental(pos []geom.Point, down []bool) {
	// 1. Re-bucket the dirty nodes at their new positions and states. Down
	// nodes live outside the grid entirely: a node that was up leaves the
	// grid, and only nodes that are (still or newly) up re-enter it.
	for _, m := range b.moved {
		if !b.down[m] {
			b.grid.Remove(int32(m), b.pos[m])
		}
		b.pos[m] = pos[m]
		b.down[m] = isDown(down, int(m))
		if !b.down[m] {
			b.grid.Insert(int32(m), b.pos[m])
		}
	}

	// 2. Rescan each dirty node against the updated grid and merge-diff the
	// old and new lists (see patch). An out-edge m→v that appeared or
	// vanished patches v's in-list, an in-edge v→m patches v's out-list.
	// An undirected graph is the directed case with one list per node: the
	// in-list of v is its adjacency list, and the in-edge diff — which
	// would repeat the out-edge diff — is skipped.
	//
	// adjTotal is carried as a delta: a dirty node's own out-list
	// contributes its length difference and each splice of a stationary
	// out-list ±1, so every edge change is counted exactly once per
	// out-list it touches.
	peerIn := b.in
	if peerIn == nil {
		peerIn = b.adj
	}
	for _, m := range b.moved {
		b.newOut = b.scanOut(m, b.newOut)
		if old := b.adj[m]; !slices.Equal(old, b.newOut) {
			// Equal lists are the common case: a displacement too small
			// to change any edge needs no patching.
			spliced := b.patch(m, old, b.newOut, peerIn)
			if b.in == nil {
				b.adjTotal += spliced
			}
			b.adjTotal += len(b.newOut) - len(old)
			b.adj[m] = append(old[:0], b.newOut...)
		}
		if b.in == nil {
			continue
		}
		b.newIn = b.scanIn(m, b.newIn)
		if old := b.in[m]; !slices.Equal(old, b.newIn) {
			b.adjTotal += b.patch(m, old, b.newIn, b.adj)
			b.in[m] = append(old[:0], b.newIn...)
		}
	}
}

// patch merge-diffs dirty node m's sorted old and new edge lists and
// settles the far end of every difference in lists: stationary endpoints
// of vanished edges drop m, stationary endpoints of new edges gain m
// (sorted in place, O(degree)). Dirty–dirty edges need no patching — each
// endpoint's own rescan settles its list. It marks m and every spliced
// node changed and returns the net number of entries added to lists.
func (b *Builder) patch(m NodeID, old, cur []NodeID, lists [][]NodeID) (spliced int) {
	b.markChanged(m)
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && old[i] < cur[j]):
			if v := old[i]; b.movedStamp[v] != b.gen {
				lists[v] = removeSorted(lists[v], m)
				b.markChanged(v)
				spliced--
			}
			i++
		case i == len(old) || old[i] > cur[j]:
			if v := cur[j]; b.movedStamp[v] != b.gen {
				lists[v] = insertSorted(lists[v], m)
				b.markChanged(v)
				spliced++
			}
			j++
		default: // edge unchanged
			i++
			j++
		}
	}
	return spliced
}

// markChanged records v in the changed-adjacency list of the update in
// progress, deduplicating via the update's generation stamp.
func (b *Builder) markChanged(v NodeID) {
	if b.changedStamp[v] != b.gen {
		b.changedStamp[v] = b.gen
		b.changed = append(b.changed, v)
	}
}

// Changed reports which nodes' adjacency lists differ from the previous
// snapshot after the most recent Update. all=true means the update was a
// full (re)build — the first build, a barrier toggle, or the moved
// fraction exceeding the incremental threshold — and every node must be
// treated as changed (the list is then empty). Otherwise the list is exact
// and duplicate-free, in no particular order: a node not listed has
// byte-identical out- and in-lists to the previous snapshot. The slice
// aliases builder scratch and is valid until the next Update.
func (b *Builder) Changed() (changed []NodeID, all bool) {
	return b.changed, b.changedAll
}

// insertSorted adds x to the sorted slice a, keeping it sorted.
func insertSorted(a []NodeID, x NodeID) []NodeID {
	a = append(a, x)
	i := len(a) - 1
	for i > 0 && a[i-1] > x {
		a[i] = a[i-1]
		i--
	}
	a[i] = x
	return a
}

// removeSorted deletes x from the sorted slice a, keeping it sorted.
func removeSorted(a []NodeID, x NodeID) []NodeID {
	for i, v := range a {
		if v == x {
			copy(a[i:], a[i+1:])
			return a[:len(a)-1]
		}
	}
	return a
}

// snapshot wraps the builder's current state in a Graph header. The slices
// are shared, not copied; see the type comment for the lifetime contract.
func (b *Builder) snapshot() *Graph {
	links := b.adjTotal
	if b.in == nil {
		links /= 2
	}
	return &Graph{
		pos:    b.pos,
		area:   b.area,
		rng:    b.maxR,
		ranges: b.lm.Ranges,
		adj:    b.adj,
		in:     b.in,
		links:  links,
	}
}
