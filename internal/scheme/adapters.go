// Adapters putting the discovery mechanisms — CARD, flooding, expanding
// ring, bordercast — behind the DiscoveryScheme interface. The anycast
// rules every mechanism shares (what is answered without radio traffic,
// which holder answers, what a dead search costs) live here once; below,
// flood and bordercast only know node targets, card.Querier sets of them.
package scheme

import (
	"fmt"
	"slices"

	"card/internal/bordercast"
	"card/internal/card"
	"card/internal/flood"
	"card/internal/manet"
	"card/internal/resource"
	"card/internal/topology"
)

// stateless is a scheme with nothing to register and nothing to repair —
// CARD's own maintenance (contact selection and validation) belongs to the
// protocol's clock, and the flooding and bordercast baselines keep no
// state between queries — so it is just a name and a worker factory.
type stateless struct {
	name      string
	newWorker func() Worker
}

func (s *stateless) Name() string         { return s.name }
func (s *stateless) Setup()               {}
func (s *stateless) Maintain(now float64) {}
func (s *stateless) Worker() Worker       { return s.newWorker() }

// tally is the accounting half of every baseline worker — the sharding
// contract of the package doc in code: Discover charges the private pend,
// never the shared recorder, and Flush drains pend into the network's
// recorder serially after the batch joins.
type tally struct {
	net  *manet.Network
	pend manet.Counters
}

func (t *tally) Flush() {
	t.pend.AddTo(t.net.Recorder())
	t.pend.Reset()
}

// miss is a discovery that located no holder.
func miss(msgs int64) resource.Result {
	return resource.Result{Messages: msgs, PathHops: -1}
}

// selfHeld resolves the query locally when src itself holds the resource:
// zero control messages, zero hops, under every discovery scheme. The
// flooding baselines used to skip this check and charge a full flood for a
// resource the source already had, inflating their overhead relative to
// CARD (which has always answered locally) and skewing every cost
// comparison under replication.
func selfHeld(holders []NodeID, src NodeID) (resource.Result, bool) {
	if slices.Contains(holders, src) {
		return resource.Result{Found: true, Holder: src, PathHops: 0}, true
	}
	return resource.Result{}, false
}

// nearest is the one nearest-reachable pick: it returns the candidate
// (a resource's holders, a region's residents) with the smallest
// non-negative dist — scan hops from the querier — or topology.None when
// none is reachable. Equidistant candidates tie to the first listed — or,
// with lowestID, to the lowest id, for schemes whose cost depends on which
// holder is addressed and must not vary with holder insertion order.
func nearest(dist []int32, candidates []NodeID, lowestID bool) NodeID {
	best := NodeID(-1)
	for _, c := range candidates {
		if dist[c] < 0 {
			continue
		}
		if best < 0 || dist[c] < dist[best] || (lowestID && dist[c] == dist[best] && c < best) {
			best = c
		}
	}
	return best
}

// --- card ---

func newCard(env Env) (DiscoveryScheme, error) {
	if env.Prot == nil {
		return nil, fmt.Errorf("scheme card: Env needs Prot")
	}
	return &stateless{"card", func() Worker {
		return &cardWorker{dir: env.Dir, q: env.Prot.NewQuerier()}
	}}, nil
}

// cardWorker wraps a card.Querier, which already implements the
// local-tally/serial-flush contract: tallies accumulate in q and no shared
// protocol state is touched, so any number of workers may discover
// concurrently between rounds.
type cardWorker struct {
	dir *resource.Directory
	q   *card.Querier
}

// Discover finds a holder of id through the contact architecture. The
// DSQ carries the resource, not a node: the source answers from its own
// neighborhood table if it lists a holder, and otherwise one escalation
// through its contacts ends at the first queried contact whose table
// lists any holder — so replication multiplies the effective target set
// exactly as it would in a real deployment, at the cost of one search.
// The answering table names its nearest holder, ties to the lowest id.
func (w *cardWorker) Discover(src NodeID, id resource.ID) resource.Result {
	holders := w.dir.Placed(id)
	if r, ok := selfHeld(holders, src); ok {
		return r
	}
	return w.q.Resolve(src, holders)
}

func (w *cardWorker) Flush() { w.q.Flush() }

// --- flood / ring ---

// The two flooding baselines are one worker; they differ only in the TTL
// schedule. "flood" is the one-ring schedule {unbounded}: plain
// duplicate-suppressed flooding reaches everyone, so its cost is
// component-sized regardless of replication. "ring" is the doubling
// schedule, stopping at the ring that first covers a holder — the
// classical anycast baseline.
func newFlood(env Env) (DiscoveryScheme, error) { return floodScheme("flood", env, floodAll), nil }

// floodAll is the one-ring TTL schedule: a single unbounded flood.
var floodAll = []int{-1}

func newRing(env Env) (DiscoveryScheme, error) {
	return floodScheme("ring", env, flood.DoublingTTLs(64)), nil
}

func floodScheme(name string, env Env, ttls []int) DiscoveryScheme {
	return &stateless{name, func() Worker {
		return &floodWorker{tally: tally{net: env.Net}, dir: env.Dir, ttls: ttls}
	}}
}

type floodWorker struct {
	tally
	dir  *resource.Directory
	ttls []int
	scan topology.BFSResult
}

// Discover floods for id: the query carries the resource id and the
// nearest reachable holder answers. One scan from src picks the holder and
// prices every ring.
func (w *floodWorker) Discover(src NodeID, id resource.ID) resource.Result {
	holders := w.dir.Placed(id)
	if len(holders) == 0 {
		return miss(0)
	}
	if r, ok := selfHeld(holders, src); ok {
		return r
	}
	w.scan.Run(w.net.Graph(), src, -1)
	// With no reachable holder the target is topology.None: the search
	// runs its full TTL schedule over src's component and dies. Charging
	// that explicitly (rather than a query toward holders[0] as a proxy
	// destination) makes the dead-search cost a function of the topology
	// alone, identical under any holder insertion order.
	target := nearest(w.scan.Dist, holders, false)
	r := flood.Search(&w.pend, &w.scan, target, w.ttls, true)
	if !r.Found {
		return miss(r.Messages)
	}
	return resource.Result{Found: true, Holder: target, Messages: r.Messages, PathHops: r.PathHops}
}

// --- bordercast ---

// newBordercast runs ZRP bordercasting as an anycast: a query targets
// the nearest reachable holder (ties to the lowest id, so the outcome is
// invariant under holder insertion order). The zone radius reuses CARD's
// neighborhood radius R — the same proactive substrate, exactly as the
// paper's comparison sets it up. The Protocol holds no per-query state,
// so one shared instance serves every worker.
func newBordercast(env Env) (DiscoveryScheme, error) {
	if env.Prot == nil {
		return nil, fmt.Errorf("scheme bordercast: Env needs Prot (zone = neighborhood radius)")
	}
	nb := env.Prot.Neighborhood()
	bc, err := bordercast.New(env.Net, nb, bordercast.Config{Zone: nb.R(), QD: bordercast.QD2})
	if err != nil {
		return nil, fmt.Errorf("scheme bordercast: %w", err)
	}
	return &stateless{"bordercast", func() Worker {
		return &bordercastWorker{tally: tally{net: env.Net}, dir: env.Dir, bc: bc}
	}}, nil
}

type bordercastWorker struct {
	tally
	dir  *resource.Directory
	bc   *bordercast.Protocol
	scan topology.BFSResult
}

func (w *bordercastWorker) Discover(src NodeID, id resource.ID) resource.Result {
	holders := w.dir.Placed(id)
	if len(holders) == 0 {
		return miss(0)
	}
	if r, ok := selfHeld(holders, src); ok {
		return r
	}
	w.scan.Run(w.net.Graph(), src, -1)
	target := nearest(w.scan.Dist, holders, true)
	if target < 0 {
		// No reachable holder: the cascade runs dry over src's component.
		// The cost is target-independent, so the lowest-id holder serves as
		// the nominal (unreachable) destination.
		return miss(w.bc.Query(&w.pend, src, slices.Min(holders)).Messages)
	}
	r := w.bc.Query(&w.pend, src, target)
	return resource.Result{Found: r.Found, Holder: target, Messages: r.Messages, PathHops: r.PathHops}
}
