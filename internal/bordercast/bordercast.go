// Package bordercast implements the Zone Routing Protocol's bordercasting
// query mechanism with query detection, the paper's second baseline
// (§II, §IV.D; Haas & Pearlman [8][9]).
//
// Every node proactively knows its zone (radius ρ hops — the same substrate
// CARD uses for its neighborhood). A query for a target outside the
// source's zone is bordercast: relayed along a tree to the zone's
// peripheral nodes (distance exactly ρ), each of which checks its own zone
// and re-bordercasts on failure. Query detection curbs the flood-like
// growth:
//
//	QD1 — nodes that relay the query remember it and suppress later
//	      deliveries into regions they cover;
//	QD2 — single-channel overhearing: every neighbor of a transmitting
//	      node also detects the query.
package bordercast

import (
	"fmt"

	"card/internal/bitset"
	"card/internal/manet"
	"card/internal/neighborhood"
	"card/internal/topology"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// QDMode selects the query-detection level.
type QDMode int

const (
	// QDNone disables query detection (pure recursive bordercast).
	QDNone QDMode = iota
	// QD1 marks relaying nodes as covered.
	QD1
	// QD2 marks relaying nodes and every neighbor of a transmitter.
	QD2
)

func (m QDMode) String() string {
	switch m {
	case QDNone:
		return "none"
	case QD1:
		return "QD1"
	case QD2:
		return "QD2"
	default:
		return fmt.Sprintf("QDMode(%d)", int(m))
	}
}

// Config parameterizes the protocol.
type Config struct {
	// Zone is the zone radius ρ in hops (>= 1).
	Zone int
	// QD is the query-detection mode (default QD2, matching the paper's
	// "bordercasting was implemented with query detection (QD1 and QD2)").
	QD QDMode
}

// Protocol runs bordercast queries over a network.
type Protocol struct {
	cfg Config
	net *manet.Network
	nb  neighborhood.Provider
}

// New creates a bordercasting instance. The provider's radius must equal
// cfg.Zone.
func New(net *manet.Network, nb neighborhood.Provider, cfg Config) (*Protocol, error) {
	if cfg.Zone < 1 {
		return nil, fmt.Errorf("bordercast: zone radius %d < 1", cfg.Zone)
	}
	if cfg.QD < QDNone || cfg.QD > QD2 {
		return nil, fmt.Errorf("bordercast: unknown QD mode %d", int(cfg.QD))
	}
	if nb.R() != cfg.Zone {
		return nil, fmt.Errorf("bordercast: provider radius %d != zone %d", nb.R(), cfg.Zone)
	}
	return &Protocol{cfg: cfg, net: net, nb: nb}, nil
}

// Result reports one bordercast query.
type Result struct {
	// Found reports whether some queried zone contained the target.
	Found bool
	// Messages is the control traffic generated (relay hops + replies).
	Messages int64
	// PathHops is the length of the discovered route source→target along
	// the bordercast tree, or -1.
	PathHops int
	// Rounds is the number of bordercast waves issued.
	Rounds int
}

// Query searches for target from src, accounting on rec (serial callers
// pass the network's Recorder()). The Protocol holds no per-query state
// (covered sets and tree distances are allocated per call), so concurrent
// Query calls with private tallies are race-free between snapshot
// refreshes — the scheme layer's per-worker sharding relies on exactly
// this.
func (p *Protocol) Query(rec *manet.Counters, src, target NodeID) Result {
	var sent manet.Counters
	res := p.query(&sent, src, target)
	sent.AddTo(rec)
	res.Messages = sent.Total()
	return res
}

func (p *Protocol) query(sent *manet.Counters, src, target NodeID) Result {
	if p.nb.Contains(src, target) {
		// Intra-zone: the proactive table already has the route.
		return Result{Found: true, PathHops: p.nb.Dist(src, target)}
	}
	n := p.net.N()
	covered := bitset.New(n)
	covered.Add(int(src))
	// dist accumulates hops from the source along the bordercast tree.
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0

	frontier := []NodeID{src}
	rounds := 0
	for len(frontier) > 0 {
		rounds++
		var next []NodeID
		// Query-detection marks accumulate during the round and apply at
		// its boundary: a bordercast wave is concurrent, so transmissions
		// within it cannot suppress sibling deliveries of the same wave —
		// only the next wave sees the detection state.
		var marks []NodeID
		for _, v := range frontier {
			next = p.bordercast(sent, v, target, covered, dist, &marks, next)
			if found := dist[target]; found >= 0 {
				// Found during v's bordercast: reply unicasts back.
				sent.Record(manet.CatReply, int64(found))
				return Result{Found: true, PathHops: int(found), Rounds: rounds}
			}
		}
		for _, w := range marks {
			covered.Add(int(w))
		}
		frontier = next
	}
	return Result{Found: false, PathHops: -1, Rounds: rounds}
}

// bordercast relays v's query to its uncovered peripheral nodes along the
// shortest-path tree within v's zone, applying query detection. Every
// node that receives the frame — the addressed relay and, under QD2, every
// overhearing neighbor of the transmitter — processes the query: it checks
// its own zone table for the target, exactly like a ZRP node handling an
// interzone packet. That is why query detection does not cost success:
// detected nodes have already searched their zones. It appends peripheral
// nodes that should re-bordercast to next and returns it; when some
// processing node's zone contains the target, dist[target] is set and the
// cast stops early.
func (p *Protocol) bordercast(sent *manet.Counters, v, target NodeID, covered *bitset.Set, dist []int32, marks *[]NodeID, next []NodeID) []NodeID {
	// process zone-checks the query at node w, reached hops transmissions
	// from the source. Reports whether the target was located.
	process := func(w NodeID, hops int32) bool {
		if !p.nb.Contains(w, target) {
			return false
		}
		d := hops + int32(p.nb.Dist(w, target))
		if dist[target] < 0 || d < dist[target] {
			dist[target] = d
		}
		return true
	}
	// The query sits at v; v's own zone table is consulted first.
	if process(v, dist[v]) {
		return next
	}
	// sentEdge dedups tree edges: one transmission per (from,to) pair even
	// when several peripheral routes share a prefix.
	sentEdge := make(map[[2]NodeID]struct{})
	var route []NodeID // one buffer for every peripheral route of this cast
	for _, b := range p.nb.EdgeNodes(v) {
		if covered.Contains(int(b)) {
			continue // QD: this region already saw the query
		}
		var ok bool
		if route, ok = p.nb.AppendRoute(route[:0], v, b); !ok {
			continue
		}
		for i := 0; i+1 < len(route); i++ {
			e := [2]NodeID{route[i], route[i+1]}
			if _, dup := sentEdge[e]; dup {
				continue
			}
			sentEdge[e] = struct{}{}
			sent.Record(manet.CatQuery, 1)
			from, to := route[i], route[i+1]
			at := dist[v] + int32(i+1)
			if p.cfg.QD != QDNone {
				*marks = append(*marks, from, to)
			}
			if process(to, at) {
				return next
			}
			if p.cfg.QD == QD2 {
				// Single channel: every neighbor of the transmitter hears
				// the frame, detects the query, and checks its own zone.
				for _, w := range p.net.Neighbors(from) {
					*marks = append(*marks, w)
					if process(w, at) {
						return next
					}
				}
			}
		}
		if dist[b] < 0 || dist[v]+int32(len(route)-1) < dist[b] {
			dist[b] = dist[v] + int32(len(route)-1)
		}
		// Delivered border nodes are covered immediately: they hold the
		// query now, so delivering it again from a sibling cast is waste
		// the sender-side tree pruning avoids.
		covered.Add(int(b))
		next = append(next, b)
	}
	return next
}
