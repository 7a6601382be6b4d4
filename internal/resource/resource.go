// Package resource adds the resource layer on top of CARD's node
// discovery: named resources (services, data items, roles) hosted at one
// or more nodes.
//
// The paper evaluates node discovery and leaves "various scenarios of ...
// resource distributions in the network" as future work (§V); this
// package holds the data of that study. A Directory maps resource ids to
// holder nodes; discovery for a resource succeeds when any holder is
// found, so replication turns one lookup into an any-cast and changes
// every scheme's cost curve. Executing a discovery is the scheme
// package's job (scheme.Worker.Discover returns this package's Result).
package resource

import (
	"sort"

	"card/internal/topology"
	"card/internal/xrand"
)

// ID names a resource.
type ID int32

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Directory records which nodes hold which resources. It is the
// simulator's bird's-eye registry; protocol-visible knowledge stays local
// (a node knows the resources of its own neighborhood through the
// proactive substrate, exactly as it knows the nodes themselves).
type Directory struct {
	n       int
	holders map[ID][]NodeID

	// PlaceReplicas sampling scratch: sample holds the identity
	// permutation between calls (each call swaps k positions and swaps
	// them back), swaps records the positions to undo.
	sample []NodeID
	swaps  []int
}

// NewDirectory creates an empty directory over an n-node network.
func NewDirectory(n int) *Directory {
	return &Directory{
		n:       n,
		holders: make(map[ID][]NodeID),
	}
}

// Place registers node u as a holder of resource id. Duplicate placements
// are ignored.
func (d *Directory) Place(id ID, u NodeID) {
	for _, h := range d.holders[id] {
		if h == u {
			return
		}
	}
	d.holders[id] = append(d.holders[id], u)
}

// PlaceReplicas registers k distinct uniformly random holders for id.
//
// Holders are drawn with a partial Fisher–Yates shuffle over a persistent
// identity scratch: exactly k swaps forward, then k swaps back, so after
// the first call placing a resource costs O(k) — not the O(n) time and
// allocation of the full n-permutation it replaces. The sampled k-subsets
// are distributed identically to that permutation's prefix, but the draw
// consumes k values from rng instead of n-1, so placements for a given
// seed differ from pre-change streams.
func (d *Directory) PlaceReplicas(id ID, k int, rng *xrand.Rand) {
	if k > d.n {
		k = d.n
	}
	if k <= 0 {
		return
	}
	if d.sample == nil {
		d.sample = make([]NodeID, d.n)
		for i := range d.sample {
			d.sample[i] = NodeID(i)
		}
		d.swaps = make([]int, 0, k)
	}
	s, swaps := d.sample, d.swaps[:0]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(d.n-i)
		s[i], s[j] = s[j], s[i]
		swaps = append(swaps, j)
		d.Place(id, s[i])
	}
	// Undo the swaps in reverse so the scratch is the identity again for
	// the next call.
	for i := k - 1; i >= 0; i-- {
		j := swaps[i]
		s[i], s[j] = s[j], s[i]
	}
	d.swaps = swaps[:0]
}

// Placed returns the nodes holding id in placement order — the order the
// schemes that break distance ties by first placement (flood, ring) visit
// them in; CARD and bordercast tie to the lowest id. It is the directory's
// own slice, not a copy: read-only, valid until the next placement of id.
func (d *Directory) Placed(id ID) []NodeID { return d.holders[id] }

// Holders returns the nodes holding id (sorted, copy).
func (d *Directory) Holders(id ID) []NodeID {
	hs := append([]NodeID(nil), d.holders[id]...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return hs
}

// IDs returns every registered resource id in ascending order. The sorted
// copy is the deterministic iteration surface over the holder map — scheme
// setup passes (rendezvous registration) walk it instead of ranging the
// map directly.
func (d *Directory) IDs() []ID {
	ids := make([]ID, 0, len(d.holders))
	for id := range d.holders {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Resources returns the number of distinct resources registered.
func (d *Directory) Resources() int { return len(d.holders) }

// Result reports one resource discovery.
type Result struct {
	// Found reports whether some holder was located.
	Found bool
	// Holder is the located holder (undefined when !Found).
	Holder NodeID
	// Messages is the control traffic of the discovery.
	Messages int64
	// PathHops is the route length to the holder, or -1.
	PathHops int
	// Depth is the CARD contact level that answered: 0 for the source's
	// own neighborhood, 1 for a first-level contact, and so on. Other
	// schemes leave it 0, as does a miss.
	Depth int
}
