package card

import (
	"slices"

	"card/internal/manet"
	"card/internal/xrand"
)

// Maintainer executes contact selection and maintenance for individual
// nodes without touching any shared mutable protocol state: the visited
// markers, the selection-overlap scratch, the random generator, the
// protocol statistics and the message tallies all live in the Maintainer
// itself. It is the write-side sibling of [Querier]: between topology
// refreshes, any number of Maintainers may run concurrently over the same
// Protocol — one per worker, each handling a disjoint set of nodes — since
// node u's round reads and writes only u's own table.
//
// Determinism is anchored in counter-based RNG streams: MaintainNode and
// SelectNode reseed the Maintainer's generator from the substream
// (nodeID, round) of the protocol's run seed, so a node's coin flips are
// identical whether the round runs serially in id order or sharded across
// any number of workers in any interleaving. The engine's round fan-out
// relies on exactly this.
//
// A Maintainer is single-goroutine; protocol statistics and message
// tallies accumulate locally until Flush hands them over. With concurrent
// Maintainers, flush serially after the fan-out joins (the engine flushes
// in worker order).
type Maintainer struct {
	p *Protocol

	// visited is the per-CSQ "this node has seen query q" marker, epoch
	// stamped to avoid clearing between walks (EM walks only; PM walks are
	// memoryless by design). One byte per node keeps the array the walk
	// probes at random cache-resident; walkEM clears it every 255 walks,
	// when the generation wraps.
	visited  []uint8
	visitGen uint8

	// ineligible is the per-round selection-overlap scratch, epoch stamped
	// like visited; see computeIneligible.
	ineligible []uint64
	ineligGen  uint64

	// routePos is shortenRoute's position stamp, routeGen<<32 | the node's
	// last route index; an older generation's stamp is below every current one.
	routePos []uint64
	routeGen uint32

	// rng is reseeded from the (node, round) substream at every
	// MaintainNode/SelectNode entry; it must never be drawn from before a
	// reseed.
	rng *xrand.Rand

	// Reusable walk and validation scratch, grown on demand and retained
	// across rounds: the EM/PM walk stack, the candidate lists (PM: the
	// current step's; EM: one per walk frame, end to end, with frames
	// holding each frame's start offset), the shuffled edge-node copy, the
	// intra-neighborhood route of the current CSQ or recovery splice, and
	// validatePath's rebuilt route.
	stack   []NodeID
	cand    []NodeID
	frames  []int
	edges   []NodeID
	route   []NodeID
	pathOut []NodeID

	// Locally accumulated protocol statistics, transmission tallies and
	// table edits, flushed on demand. held logs every entry this
	// Maintainer added to or removed from a table, for Flush to apply to
	// the protocol's owners-of index: nothing shared is written mid-round.
	stats Stats
	pend  manet.Counters
	held  []heldEdit
}

// heldEdit is one logged table change: owner's table gained (add) or lost
// an entry naming contact.
type heldEdit struct {
	owner, contact NodeID
	add            bool
}

// heldKeep is the log capacity, in edits, Flush always lets a Maintainer
// keep. A larger buffer survives only while a flush uses a quarter of it,
// so the initial selection's N·NoC edits are not held for the whole run.
const heldKeep = 4096

// NewMaintainer creates an independent selection/maintenance executor
// over p.
func (p *Protocol) NewMaintainer() *Maintainer {
	return &Maintainer{
		p:          p,
		visited:    make([]uint8, p.net.N()),
		ineligible: make([]uint64, p.net.N()),
		routePos:   make([]uint64, p.net.N()),
		rng:        xrand.New(0), // reseeded per (node, round) before use
	}
}

// Flush hands the locally accumulated statistics and message tallies to
// the protocol and its network recorder, applies the logged table edits
// to the owners-of index, and zeroes all three. Call after a serial round
// completes, or — with concurrent Maintainers — serially after the
// fan-out joins.
func (m *Maintainer) Flush() {
	m.pend.AddTo(m.p.net.Recorder())
	m.pend.Reset()
	m.p.stats.add(m.stats)
	m.stats = Stats{}
	for _, e := range m.held {
		if e.add {
			m.p.hold(e.owner, e.contact)
		} else {
			m.p.release(e.owner, e.contact)
		}
	}
	if cap(m.held) > max(heldKeep, 4*len(m.held)) {
		m.held = nil
	} else {
		m.held = m.held[:0]
	}
}

// sendHop accounts one unicast hop transmission of category cat into the
// local tally.
func (m *Maintainer) sendHop(cat manet.Category) { m.pend.Record(cat, 1) }

// sendHops accounts k unicast hop transmissions of category cat.
func (m *Maintainer) sendHops(cat manet.Category, k int) { m.pend.Record(cat, int64(k)) }

// SelectNode runs the contact-selection procedure of §III.C.1 for node u
// at simulation time now, drawing randomness from the (u, round)
// substream. It returns the number of contacts added. Churned-down nodes
// skip the round entirely — their radios are off — which is safe for the
// parallel fan-out because every node's randomness comes from its own
// substream, so a skip cannot shift any other node's draws.
func (m *Maintainer) SelectNode(u NodeID, now float64, round uint64) int {
	if m.p.net.Down(u) {
		return 0
	}
	m.rng.Reseed(m.p.rng.StreamSeed(uint64(u), round))
	return m.selectContacts(u, now)
}

// MaintainNode runs one contact-maintenance round (§III.C.3) for node u,
// drawing any refill-selection randomness from the (u, round) substream:
//
//  1. each contact is sent a validation message along its stored source
//     route;
//  2. a missing next hop triggers local recovery — the node holding the
//     message looks the missing hop (and then each later path node) up in
//     its own neighborhood table and splices the path;
//  3. contacts whose path cannot be recovered are lost;
//  4. contacts whose validated route — shortened if it was spliced — is
//     shorter than the method's lower bound or longer than r are dropped;
//  5. a table left below NoC triggers new contact selection.
//
// Churned-down nodes skip the round (see SelectNode). Protocol.MaintainAll
// is the serial round over every node.
func (m *Maintainer) MaintainNode(u NodeID, now float64, round uint64) {
	if m.p.net.Down(u) {
		return
	}
	m.rng.Reseed(m.p.rng.StreamSeed(uint64(u), round))
	m.maintain(u, now)
}

// selectContacts implements the selection round on the already-seeded
// generator: while the table holds fewer than NoC contacts, send a Contact
// Selection Query (CSQ) through each edge node, one at a time.
//
// Each CSQ performs a random depth-first walk with backtracking beyond the
// edge node, bounded to r hops from the source, until some node accepts
// contact-hood under the configured method (PM1/PM2/EM) or the region is
// exhausted.
//
// A walk that comes home empty visited everything it could reach within
// its budget, but walks launched through other edge nodes still explore
// different directions (path length is charged from the source through
// that edge). The round therefore tolerates MaxFailedWalks empty walks
// before giving up until the next maintenance round — which retries with
// fresh randomness, mattering most for the probabilistic methods whose
// coin flips may simply have failed (the paper's "lost opportunities").
func (m *Maintainer) selectContacts(u NodeID, now float64) int {
	p := m.p
	t := &p.tables[u]
	if t.Len() >= p.cfg.NoC {
		return 0
	}
	edges := append(m.edges[:0], p.nb.EdgeNodes(u)...)
	m.edges = edges
	if len(edges) == 0 {
		return 0 // nobody to send a CSQ through
	}
	m.rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	m.computeIneligible(u)
	added, failures := 0, 0
	for _, e := range edges {
		if t.Len() >= p.cfg.NoC {
			break
		}
		path, exhausted := m.runCSQ(u, e, now)
		if path != nil {
			c := path[len(path)-1]
			t.add(Contact{ID: c, Path: path, SelectedAt: now, LastValidated: now})
			m.held = append(m.held, heldEdit{u, c, true})
			m.markIneligible(p.nb.Members(c))
			m.stats.ContactsSelected++
			added++
		}
		if exhausted {
			failures++
			if p.cfg.MaxFailedWalks > 0 && failures >= p.cfg.MaxFailedWalks {
				break
			}
		}
	}
	return added
}

// maintain implements the maintenance round on the already-seeded
// generator; see MaintainNode for the five rules.
func (m *Maintainer) maintain(u NodeID, now float64) {
	p := m.p
	t := &p.tables[u]
	lo := p.cfg.Method.lowerBound(p.cfg.R)
	for i := 0; i < t.Len(); {
		newPath, ok := m.validatePath(t.at(i))
		if hops := len(newPath) - 1; ok && (hops < lo || hops > p.cfg.MaxContactDist) {
			ok = false
			m.stats.BoundDrops++
			if hops > p.cfg.MaxContactDist {
				m.stats.TooFarDrops++
			}
		}
		if !ok {
			m.stats.ContactsLost++
			m.held = append(m.held, heldEdit{u, t.at(i).ID, false})
			t.removeAt(i)
			continue
		}
		t.setPath(i, newPath)
		t.at(i).LastValidated = now
		i++
	}
	if t.Len() < p.cfg.NoC {
		m.selectContacts(u, now)
	}
}

// computeIneligible stamps into m.ineligible every node that must refuse
// contact-hood for source u.
//
// The paper phrases the test locally at the candidate X: "X checks if the
// source lies within its neighborhood [and] if its neighborhood contains
// any of the node IDs in the Contact_List [or, under EM, the Edge_List]".
// Hop distance over an undirected snapshot is symmetric, so
// (y in N(X)) == (X in N(y)); the union of N(source), N(contact_i) and —
// for EM — N(edge_j) therefore contains exactly the candidates that would
// refuse. Stamping that union replaces O(|Contact_List| + |Edge_List|)
// membership probes at every visited node with one stamp comparison,
// without changing the decision each node would make, at O(Σ|ball|) cost
// independent of N.
//
// It runs once per selection round, not per CSQ: within selectContacts
// the table only grows, so the set a later walk must see is this one plus
// the balls of the contacts added since — which selectContacts stamps as
// it stores them (markIneligible). The EM term N(source) ∪ ⋃ N(edge_j)
// is the provider's edge cover, on exact providers the 2R-hop out-ball
// of u — one bounded BFS instead of |Edge_List| views; the identity and
// its directed-graph proof are at neighborhood.Table.StampCover.
func (m *Maintainer) computeIneligible(u NodeID) {
	p := m.p
	m.ineligGen++
	if p.cfg.Method == EM {
		p.nb.StampCover(u, m.ineligible, m.ineligGen)
	} else {
		m.markIneligible(p.nb.Members(u))
	}
	t := &p.tables[u]
	for i := 0; i < t.Len(); i++ {
		m.markIneligible(p.nb.Members(t.at(i).ID))
	}
}

// markIneligible adds one neighborhood to the current round's set.
func (m *Maintainer) markIneligible(ball []NodeID) {
	for _, x := range ball {
		m.ineligible[x] = m.ineligGen
	}
}

// accept decides whether node x, reached with CSQ hop count d, becomes a
// contact for the current walk (§III.C.2).
func (m *Maintainer) accept(x NodeID, d int) bool {
	if m.ineligible[x] == m.ineligGen {
		return false
	}
	switch m.p.cfg.Method {
	case PM1:
		return m.rng.Bool(acceptProb(d, m.p.cfg.R, m.p.cfg.MaxContactDist))
	case PM2:
		return m.rng.Bool(acceptProb(d, 2*m.p.cfg.R, m.p.cfg.MaxContactDist))
	default: // EM: the edge-list exclusion is already in ineligible
		return true
	}
}

// runCSQ sends one Contact Selection Query from u through edge node e. It
// returns the selected contact's shortened source route (scratch owned by
// the Maintainer, valid until its next walk — callers store it via
// Table.add, which copies), or nil with exhausted=true when the walk gave
// up (region saturated for EM; step budget burned for PM).
//
// The two walk disciplines deliberately differ, following §III.C.2:
//
//   - EM carries "the query and source IDs ... to prevent looping", i.e.
//     nodes remember the query and refuse to take it twice — a clean
//     depth-first traversal over distinct nodes that terminates once the
//     r-hop region is exhausted.
//   - PM has no such memory: each node "forwards the query to one of its
//     randomly chosen neighbor (excluding the one from which CSQ was
//     received)". The walk may revisit nodes (re-flipping the coin), its
//     hop count d is the length of the path it has built, and it bounces
//     off the d = r shell with backtracking. This wandering is exactly the
//     "extra traffic ... due to backtracking, and lost opportunities when
//     the probability fails" that Fig. 4 charges to PM; a per-query step
//     budget (2N transmissions) bounds walks that would wander forever.
//
// Message accounting: the transit u→e and every forward walk hop count as
// CatCSQ; every reverse hop (dead-end retreat, r-shell bounce, and the
// failure report back to the source) counts as CatBacktrack; the success
// reply returning the contact path counts as CatCSQ.
func (m *Maintainer) runCSQ(u, e NodeID, now float64) (path []NodeID, exhausted bool) {
	m.stats.CSQLaunched++
	route, ok := m.p.nb.AppendRoute(m.route[:0], u, e)
	m.route = route
	if !ok {
		return nil, false // stale edge information (provider mid-convergence)
	}
	m.sendHops(manet.CatCSQ, len(route)-1)
	if m.p.cfg.Method == EM {
		return m.walkEM(route)
	}
	return m.walkPM(route)
}

// walkEM runs the edge method's loop-free depth-first walk.
//
// Each frame (the edge node and every node pushed after it) scans its
// adjacency once, when it is first on top, and keeps the resulting
// candidate list in m.cand — the top frame's list is always the tail of
// that arena. When the walk returns to a frame from an exhausted child it
// filters the kept list by visited instead of rescanning: visited only
// grows during a walk and adjacency is fixed, so the filtered list is the
// ordered list a rescan would build and rng.Intn picks the same node.
//
// A frame at depth r-1 never pushes its children. A node at depth r
// forwards nowhere: it accepts or bounces, and a bounce stamps nothing but
// the node itself, so the parent's list after it is the list before minus
// that one index. The frame therefore draws, stamps, charges the CSQ, asks
// accept, charges the bounce and removes the index in place, until its
// list is empty or a child accepts (the r-shell drain) — the draws and
// charges the pushed walk made, in the same order, for four pushes in five.
func (m *Maintainer) walkEM(route []NodeID) ([]NodeID, bool) {
	m.visitGen++
	if m.visitGen == 0 { // a byte stamp wrapped: old stamps could alias new ones
		clear(m.visited)
		m.visitGen = 1
	}
	visited, gen := m.visited, m.visitGen
	for _, n := range route {
		visited[n] = gen
	}
	stack := append(m.stack[:0], route...)
	r := m.p.cfg.MaxContactDist
	net := m.p.net
	directed := net.Directed()
	cand, frames := m.cand[:0], m.frames[:0]
	fresh := true // the top of the stack has no frame yet
	for {
		x, d := stack[len(stack)-1], len(stack)-1
		lo := len(cand)
		if fresh {
			// d < r here: the edge node sits at depth R < r (Config.Validate)
			// and a frame at depth r-1 pushes nothing.
			frames = append(frames, lo)
			nbrs := net.Neighbors(x)
			cand = slices.Grow(cand, len(nbrs))[:lo+len(nbrs)]
			k := keepUnvisited(cand[lo:], nbrs, visited, gen)
			if directed {
				// Under asymmetric links the walk only advances over
				// bidirectional hops: the CSQ needs its reply (and every
				// backtrack) to travel the reverse edge, and a contact
				// reached one-way would fail its first validation anyway.
				kept := cand[lo : lo+k]
				k = 0
				for _, y := range kept {
					if net.Adjacent(y, x) {
						kept[k] = y
						k++
					}
				}
			}
			cand = cand[:lo+k]
		} else {
			lo = frames[len(frames)-1]
			cand = cand[:lo+keepUnvisited(cand[lo:], cand[lo:], visited, gen)]
		}
		for d == r-1 && len(cand) > lo {
			i := lo + m.rng.Intn(len(cand)-lo)
			y := cand[i]
			visited[y] = gen
			m.sendHop(manet.CatCSQ)
			if m.accept(y, r) {
				m.stack, m.cand, m.frames = append(stack, y), cand, frames
				return m.acceptContact(m.stack), false
			}
			m.sendHop(manet.CatBacktrack)
			cand = append(cand[:i], cand[i+1:]...)
		}
		if len(cand) == lo {
			// Dead end or drained r-shell: backtrack one hop. Walking back
			// past the edge node means the whole region is exhausted — the
			// failure report continues to the source.
			m.sendHop(manet.CatBacktrack)
			stack, frames, fresh = stack[:len(stack)-1], frames[:len(frames)-1], false
			if len(stack) < len(route) {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				m.stack, m.cand, m.frames = stack, cand, frames
				return nil, true
			}
			continue
		}
		y := cand[lo+m.rng.Intn(len(cand)-lo)]
		visited[y] = gen
		stack, fresh = append(stack, y), true
		m.sendHop(manet.CatCSQ)
		if m.accept(y, len(stack)-1) {
			m.stack, m.cand, m.frames = stack, cand, frames
			return m.acceptContact(stack), false
		}
	}
}

// keepUnvisited copies the nodes of src whose stamp is not gen to the front
// of dst, in order, and returns their count; it writes nothing at or past
// dst[len(src)], and dst may be src itself. Every element is stored and the
// index advances by the stamp comparison's 0 or 1, so the loop carries no
// branch that depends on a stamp — the walk's keep/drop outcomes are as
// good as random. It is kept out of line so that the index stays in a
// register: inlined into walkEM, the compiler spills it to the stack and
// the gain is gone.
//
//go:noinline
func keepUnvisited(dst, src []NodeID, visited []uint8, gen uint8) int {
	dst = dst[:len(src)]
	k := 0
	for _, y := range src {
		dst[k] = y
		if visited[y] != gen {
			k++
		}
	}
	return k
}

// walkPM runs the probabilistic methods' memoryless walk: forward to a
// random neighbor other than the parent, bounce off the r-hop shell, and
// give up when the per-query step budget is gone.
func (m *Maintainer) walkPM(route []NodeID) ([]NodeID, bool) {
	stack := append(m.stack[:0], route...)
	r := m.p.cfg.MaxContactDist
	directed := m.p.net.Directed()
	budget := 2 * m.p.net.N() // covers the region several times over, yet bounded
	cand := m.cand
	for budget > 0 {
		x := stack[len(stack)-1]
		d := len(stack) - 1
		parent := stack[len(stack)-2] // route has >= 2 nodes, stack never shrinks below it
		cand = cand[:0]
		if d < r {
			for _, y := range m.p.net.Neighbors(x) {
				if y == parent {
					continue
				}
				// Same bidirectionality requirement as the EM walk.
				if directed && !m.p.net.Adjacent(y, x) {
					continue
				}
				cand = append(cand, y)
			}
		}
		if len(cand) == 0 {
			// r-shell bounce or dead end: backtrack one hop.
			m.sendHop(manet.CatBacktrack)
			budget--
			stack = stack[:len(stack)-1]
			if len(stack) < len(route) {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				m.stack, m.cand = stack, cand
				return nil, true
			}
			continue
		}
		y := cand[m.rng.Intn(len(cand))]
		stack = append(stack, y)
		m.sendHop(manet.CatCSQ)
		budget--
		if m.accept(y, len(stack)-1) {
			m.stack, m.cand = stack, cand
			return m.acceptContact(stack), false
		}
	}
	// Budget exhausted mid-walk: the query dies and the current holder
	// reports failure back along the walk path.
	m.sendHops(manet.CatBacktrack, len(stack)-1)
	m.stack, m.cand = stack, cand
	return nil, true
}

// acceptContact finalizes a successful walk: the reply travels back along
// the walk, and every relay cuts the route it carries to the farthest listed
// node it hears directly (shortenRoute, in place on the walk stack). The
// acceptance decision used the raw walk hop count d (the paper's semantics);
// the source stores, and the reply is charged, the shortened route. Stored
// verbatim, the EM walk's meander and the PM walks' loops put Contact.Hops()
// at the walk's length, not the contact's distance, and the first recovery
// splice pushes the contact over r.
func (m *Maintainer) acceptContact(stack []NodeID) []NodeID {
	path := m.shortenRoute(stack)
	m.sendHops(manet.CatCSQ, len(path)-1) // reply carrying the shortened path
	m.stats.CSQSucceeded++
	return path
}

// shortenRoute rewrites a source route in place as its relays would cut it:
// walking forward from the owner, each node jumps to the farthest later node
// of the route that is itself again (a loop) or that it hears directly — a
// two-way link of the current snapshot — and otherwise steps to its
// successor. The result keeps both endpoints, visits no node twice, has no
// chord (no node links two-way to a later one other than its successor), and
// every hop of it is a hop of the input or a two-way link.
//
// Every relay knows its direct neighbours, so the cut costs no state and no
// message. It reads adjacency only, never a view, and runs only where a
// route is rewritten anyway (acceptContact, validatePath after a splice).
// With each node's last index stamped first, a kept relay finds its jump in
// one pass over its neighbour list: O(len + Σ degree) per route, where the
// pairwise scan of path_test.go probes ~len²/2 adjacencies.
func (m *Maintainer) shortenRoute(path []NodeID) []NodeID {
	m.routeGen++
	if m.routeGen == 0 { // wrapped: old stamps could alias new ones
		clear(m.routePos)
		m.routeGen = 1
	}
	pos, stamp := m.routePos, uint64(m.routeGen)<<32
	for i, x := range path {
		pos[x] = stamp | uint64(i)
	}
	net := m.p.net
	directed := net.Directed()
	out := path[:0]
	for i := 0; i < len(path); {
		x := path[i]
		last := pos[x] // of this generation: x is on the route
		for _, y := range net.Neighbors(x) {
			if s := pos[y]; s > last && (!directed || net.Adjacent(y, x)) {
				last = s
			}
		}
		next := max(i+1, int(uint32(last)))
		if next == len(path) || path[next] != x { // else a loop: resume at x's last occurrence
			out = append(out, x)
		}
		i = next
	}
	return out
}

// validatePath walks a contact's stored source route over the current
// topology, splicing around missing hops via local recovery. It returns
// ok=false when the contact is lost, the stored route itself when no hop
// needed a splice (the dirty-set invariant's "an intact route validates to
// itself"), and otherwise the re-spliced route, shortened, in Maintainer
// scratch valid until the next validation (Table.setPath copies it), which
// is filled from the first break on: an intact route copies nothing.
//
// A splice only lengthens a route, and may revisit nodes of the rebuilt
// prefix — the holder routes around the break through whatever its
// neighborhood table offers, oblivious to where the message has been —
// hence shortenRoute before rule 4 judges the length.
//
// Message accounting: every surviving hop of the validation walk counts as
// CatValidate, hops introduced by recovery splices as CatRecovery (both as
// traveled, before shortening). Under a lossy link model each attempted hop
// charges its retransmissions to CatRetry, and a hop that exhausts its
// retry budget is treated exactly like a broken link: the validation
// message sits at the break and pays the local-recovery detour — the
// asymmetric/lossy-hop cost the directed contract prescribes. A hop whose
// reverse edge is missing (asymmetric link) attempts nothing and goes
// straight to recovery.
func (m *Maintainer) validatePath(c *Contact) (path []NodeID, ok bool) {
	p := m.p
	old := c.Path
	var out []NodeID // the rebuilt route, begun at the first break; nil while intact
	// The validation message sits at old[i]: every splice ends at a node of old.
	for i := 0; i+1 < len(old); {
		cur, next := old[i], old[i+1]
		att, delivered := p.net.TryHop(cur, next)
		if att > 0 {
			m.sendHop(manet.CatValidate)
			if att > 1 {
				m.sendHops(manet.CatRetry, att-1)
			}
		}
		if delivered {
			if out != nil {
				out = append(out, next)
			}
			i++
			continue
		}
		if out == nil {
			out = append(m.pathOut[:0], old[:i+1]...)
		}
		// Local recovery: look for the missing hop — and failing that, each
		// subsequent node of the source path — in cur's neighborhood table.
		j := i + 1
		if p.cfg.DisableLocalRecovery {
			j = len(old) // nowhere to look: the contact is lost at the break
		}
		for ; j < len(old); j++ {
			sub, routed := p.nb.AppendRoute(m.route[:0], cur, old[j])
			m.route = sub
			if routed {
				m.sendHops(manet.CatRecovery, len(sub)-1)
				out = append(out, sub[1:]...)
				break
			}
		}
		if j == len(old) {
			m.stats.RecoveryFailures++
			m.pathOut = out
			return nil, false
		}
		i = j
		m.stats.Recoveries++
	}
	if out == nil {
		return old, true
	}
	m.pathOut = out
	return m.shortenRoute(out), true
}
