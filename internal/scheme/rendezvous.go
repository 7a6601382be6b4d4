// Rendezvous Regions (Seada & Helmy): resource keys hash to geographic
// regions of the deployment area; holders register their bindings with
// the nodes currently inside the key's region, and lookups geo-route to
// that region and flood it locally. Registration and lookup meet in the
// same region by construction — the rendezvous.
package scheme

import (
	"fmt"
	"math"

	"card/internal/flood"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/resource"
	"card/internal/topology"
)

// RegionGrid hashes resource keys onto a K×K grid of equal rectangular
// regions tiling a deployment area. The key→region map is a pure hash —
// no state, no geometry of the key — so every node computes the same
// region from the key alone, which is the whole trick: registration and
// lookup agree on the rendezvous without any coordination.
type RegionGrid struct {
	area geom.Rect
	k    int
}

// NewRegionGrid builds a K-per-side grid over area.
func NewRegionGrid(area geom.Rect, k int) (RegionGrid, error) {
	if k < 1 {
		return RegionGrid{}, fmt.Errorf("rendezvous: regions per side %d < 1", k)
	}
	if area.W <= 0 || area.H <= 0 {
		return RegionGrid{}, fmt.Errorf("rendezvous: empty area %vx%v", area.W, area.H)
	}
	return RegionGrid{area: area, k: k}, nil
}

// K returns the grid edge (regions per side).
func (g RegionGrid) K() int { return g.k }

// Regions returns the number of regions, K².
func (g RegionGrid) Regions() int { return g.k * g.k }

// RegionOf maps a resource key to its rendezvous region index in
// [0, Regions()). The map is a pure function of the key and the grid —
// stable across runs and identical on the registration and lookup paths.
func (g RegionGrid) RegionOf(id resource.ID) int {
	return int(hash64(uint64(uint32(id))) % uint64(g.k*g.k))
}

// RegionAt maps a position to the region containing it. Positions on the
// far edges clamp into the last row/column, so every in-area point — and,
// defensively, any point outside — lands in a valid region.
func (g RegionGrid) RegionAt(p geom.Point) int {
	col := int(p.X / g.area.W * float64(g.k))
	row := int(p.Y / g.area.H * float64(g.k))
	if col < 0 {
		col = 0
	} else if col >= g.k {
		col = g.k - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.k {
		row = g.k - 1
	}
	return row*g.k + col
}

// hash64 is the splitmix64 finalizer — a fixed, seedless bijection on
// uint64, so the key→region map never drifts between runs or hosts.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rrBinding is one (resource, holder) registration and its anchor — the
// region resident the binding was delivered to. anchor < 0 means the
// binding is currently unregistered (holder down, or the region had no
// reachable resident at the last attempt).
type rrBinding struct {
	id     resource.ID
	holder NodeID
	anchor NodeID
}

// rendezvous implements Rendezvous Regions over the snapshot substrate.
//
// Registration (Setup, and re-registration from Maintain) unicasts each
// binding from its holder to the nearest current resident of the key's
// region, then floods the region's residents; both legs charge
// CatRegister on the shared recorder. Maintain re-registers a binding
// when its anchor died or drifted out of the region — the mobile-holder
// re-registration rule — and drops bindings whose holder is down.
//
// Lookup (Worker.Discover) unicasts to the nearest reachable region
// resident and floods the region (CatQuery); a live registered binding
// answers with a unicast reply back to the querier (CatReply). Workers
// only read the shared binding/residency state — Setup and Maintain,
// which mutate it, run on the serial driver loop between ticks.
type rendezvous struct {
	env  Env
	grid RegionGrid

	// residents[r] lists the up nodes currently positioned in region r,
	// ascending. Rebuilt by Setup and Maintain from the live snapshot.
	residents [][]NodeID
	// regs holds every binding, sorted by (id, holder); index maps an id
	// to its [start, end) slice of regs. Both are built once in Setup —
	// the directory's placement is fixed for a run.
	regs  []rrBinding
	index map[resource.ID][2]int
	// scan is registration's breadth-first scratch, one scan per binding
	// that needs (re-)registering.
	scan topology.BFSResult
}

// defaultRegionsPerSide sizes the grid so a region spans a few radio
// ranges: large enough that region-local floods stay cheap relative to
// the network, small enough that regions are rarely empty.
func defaultRegionsPerSide(area geom.Rect, txRange float64) int {
	if txRange <= 0 {
		return 1
	}
	side := math.Min(area.W, area.H)
	k := int(side / (4 * txRange))
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return k
}

func newRendezvous(env Env) (DiscoveryScheme, error) {
	k := env.RegionsPerSide
	if k == 0 {
		k = defaultRegionsPerSide(env.Net.Area(), env.Net.TxRange())
	}
	grid, err := NewRegionGrid(env.Net.Area(), k)
	if err != nil {
		return nil, err
	}
	s := &rendezvous{env: env, grid: grid}
	s.residents = make([][]NodeID, grid.Regions())
	return s, nil
}

func (s *rendezvous) Name() string { return "rendezvous" }

// LookupRegion returns the region a querier sends a lookup for id to.
// It must always agree with the region a holder registers id into
// (grid.RegionOf in registerAll) — that agreement is the rendezvous
// invariant FuzzRegionHash pins.
func (s *rendezvous) LookupRegion(id resource.ID) int { return s.grid.RegionOf(id) }

// Setup snapshots the directory into the binding table and runs the
// initial registration round, charging CatRegister on the shared
// recorder.
func (s *rendezvous) Setup() {
	s.refreshResidents()
	dir := s.env.Dir
	s.regs = s.regs[:0]
	s.index = make(map[resource.ID][2]int, dir.Resources())
	for _, id := range dir.IDs() {
		start := len(s.regs)
		for _, h := range dir.Holders(id) {
			s.regs = append(s.regs, rrBinding{id: id, holder: h, anchor: -1})
		}
		s.index[id] = [2]int{start, len(s.regs)}
	}
	s.registerAll()
}

// Maintain re-runs residency and repairs registrations: a binding whose
// anchor is down or has moved out of the rendezvous region is
// re-registered from its holder; bindings of down holders are dropped
// (anchor cleared) without charge — a dead node transmits nothing — and
// re-registered when the holder returns.
func (s *rendezvous) Maintain(now float64) {
	s.refreshResidents()
	s.registerAll()
}

// registerAll (re-)registers every binding that needs it, scanning from
// its holder.
func (s *rendezvous) registerAll() {
	net := s.env.Net
	rec := net.Recorder()
	for i := range s.regs {
		b := &s.regs[i]
		if net.Down(b.holder) {
			b.anchor = -1
			continue
		}
		if !s.needsRegistration(b) {
			continue
		}
		s.scan.Run(net.Graph(), b.holder, -1)
		region := s.grid.RegionOf(b.id)
		// The gate is the nearest reachable resident (residents are listed
		// ascending, so ties go to the lowest id).
		gate := nearest(s.scan.Dist, s.residents[region], false)
		if gate < 0 {
			// The rendezvous region has no reachable resident right now:
			// the registration packet cannot be delivered. The holder
			// retries on a later maintenance round; no charge — suppressed
			// by the holder's own (free, proactive) view of the void.
			b.anchor = -1
			continue
		}
		// Unicast holder→gate, then flood the region's residents: each
		// resident rebroadcasts the binding once.
		rec.Record(manet.CatRegister, int64(s.scan.Dist[gate])+int64(len(s.residents[region])))
		b.anchor = gate
	}
}

// needsRegistration reports whether binding b must (re-)register: never
// registered, anchor died, or anchor drifted out of the rendezvous
// region.
func (s *rendezvous) needsRegistration(b *rrBinding) bool {
	if b.anchor < 0 {
		return true
	}
	if s.env.Net.Down(b.anchor) {
		return true
	}
	return s.grid.RegionAt(s.env.Net.Position(b.anchor)) != s.grid.RegionOf(b.id)
}

// refreshResidents rebuilds the per-region resident lists from the live
// snapshot (up nodes only, ascending by construction).
func (s *rendezvous) refreshResidents() {
	for r := range s.residents {
		s.residents[r] = s.residents[r][:0]
	}
	net := s.env.Net
	n := net.N()
	for u := 0; u < n; u++ {
		if net.Down(NodeID(u)) {
			continue
		}
		r := s.grid.RegionAt(net.Position(NodeID(u)))
		s.residents[r] = append(s.residents[r], NodeID(u))
	}
}

func (s *rendezvous) Worker() Worker {
	return &rrWorker{tally: tally{net: s.env.Net}, s: s}
}

type rrWorker struct {
	tally
	s    *rendezvous
	scan topology.BFSResult
}

// Discover looks id up through its rendezvous region: unicast to the
// nearest reachable resident, region-local flood, and — when a live
// registered binding is present — a unicast reply carrying the nearest
// live holder. An unknown or unregistered resource still pays the full
// region lookup; only a resource the querier itself holds is free.
func (w *rrWorker) Discover(src NodeID, id resource.ID) resource.Result {
	s, net := w.s, w.net
	if r, ok := selfHeld(s.env.Dir.Placed(id), src); ok {
		return r
	}
	region := s.LookupRegion(id)
	w.scan.Run(net.Graph(), src, -1)
	dist := w.scan.Dist
	gate := nearest(dist, s.residents[region], false)
	if gate < 0 {
		// Geo-routing toward an unpopulated-or-unreachable region
		// degenerates to a dead search over src's component.
		return miss(flood.Search(&w.pend, &w.scan, topology.None, floodAll, false).Messages)
	}
	// Unicast src→gate plus the region-local flood.
	msgs := int64(dist[gate]) + int64(len(s.residents[region]))
	w.pend.Record(manet.CatQuery, msgs)
	// A binding answers when it is registered, its holder is up, and the
	// holder is reachable from the querier — the reply carries a route,
	// and a partitioned holder is a lookup failure just like a stale
	// binding. Ties between equidistant holders go to the lowest id, so
	// the outcome is invariant under holder insertion order.
	best := NodeID(-1)
	if span, ok := s.index[id]; ok {
		for i := span[0]; i < span[1]; i++ {
			b := s.regs[i]
			if b.anchor < 0 || net.Down(b.holder) || dist[b.holder] < 0 {
				continue
			}
			if best < 0 || dist[b.holder] < dist[best] ||
				(dist[b.holder] == dist[best] && b.holder < best) {
				best = b.holder
			}
		}
	}
	if best < 0 {
		return miss(msgs)
	}
	// Reply unicasts back along the gate route.
	w.pend.Record(manet.CatReply, int64(dist[gate]))
	msgs += int64(dist[gate])
	return resource.Result{Found: true, Holder: best, Messages: msgs, PathHops: int(dist[best])}
}
