package card

import (
	"fmt"
	"slices"
	"sort"

	"card/internal/bitset"
	"card/internal/manet"
	"card/internal/neighborhood"
	"card/internal/topology"
	"card/internal/xrand"
)

// NodeID aliases the topology node index type.
type NodeID = topology.NodeID

// Contact is one entry of a node's contact table: a distant node plus the
// source route leading to it.
type Contact struct {
	// ID is the contact node.
	ID NodeID
	// Path is the source route owner→contact, inclusive of both endpoints:
	// the path the CSQ traveled, spliced by local recovery and cut by its
	// relays at each rewrite (shortenRoute) — simple and chord-free, near a
	// shortest path but not necessarily one. For contacts stored in a protocol
	// table the slice aliases the protocol's path arena; treat it as read-only.
	Path []NodeID
	// SelectedAt is the simulation time the contact was chosen.
	SelectedAt float64
	// LastValidated is the simulation time the path last validated.
	LastValidated float64
}

// Hops returns the source-route length to the contact.
func (c *Contact) Hops() int { return len(c.Path) - 1 }

// Table is one node's contact table: a fixed-capacity view over the
// protocol's contact slab. Node u owns slab slots [u·NoC, u·NoC+n): the
// spans of distinct nodes are disjoint, which is what lets per-worker
// Maintainers mutate their shard's tables without locks.
type Table struct {
	p     *Protocol
	owner NodeID
	n     int32 // live contacts in the span
}

// base returns the slab index of the table's first slot.
func (t *Table) base() int { return int(t.owner) * t.p.cfg.NoC }

// Contacts returns the live contacts in selection order — a slice of the
// protocol's contact slab. Callers must not mutate it (nor the Path
// slices, which alias the path arena), and must not retain it across a
// maintenance round.
func (t *Table) Contacts() []Contact {
	b := t.base()
	return t.p.slots[b : b+int(t.n) : b+int(t.n)]
}

// Len returns the number of live contacts.
func (t *Table) Len() int { return int(t.n) }

// at returns the i-th live contact in place.
func (t *Table) at(i int) *Contact { return &t.p.slots[t.base()+i] }

// add appends c to the table, copying c.Path into the slot's arena
// segment. The capacity is exactly NoC — selection never over-fills a
// table, and the fixed per-node spans are what keep parallel rounds
// race-free — so overflow is a protocol bug, not a growth event.
func (t *Table) add(c Contact) {
	if int(t.n) >= t.p.cfg.NoC {
		panic("card: contact table overflow")
	}
	slot := t.base() + int(t.n)
	t.p.slots[slot] = Contact{
		ID:            c.ID,
		Path:          t.p.setSeg(slot, c.Path),
		SelectedAt:    c.SelectedAt,
		LastValidated: c.LastValidated,
	}
	t.n++
}

// setPath replaces contact i's stored route with path (copied into the
// slot's arena segment): foreign scratch, or the stored route itself.
func (t *Table) setPath(i int, path []NodeID) {
	slot := t.base() + i
	t.p.slots[slot].Path = t.p.setSeg(slot, path)
}

// removeAt deletes contact i, preserving selection order: later contacts
// shift down one slot, their paths copied into the vacated arena segments.
func (t *Table) removeAt(i int) {
	b := t.base()
	for j := i; j < int(t.n)-1; j++ {
		next := t.p.slots[b+j+1]
		next.Path = t.p.setSeg(b+j, next.Path)
		t.p.slots[b+j] = next
	}
	t.n--
	t.p.slots[b+int(t.n)] = Contact{}
}

// Protocol is a CARD instance covering every node of a network. All nodes
// share one protocol object (the simulator's bird's-eye view); per-node
// state lives in the tables.
//
// A Protocol is single-goroutine, like the Network it runs on.
// Concurrency happens through per-worker executors: [Querier] for the
// read-only query fan-out, [Maintainer] for sharded selection/maintenance
// rounds. All mutable round scratch lives in those executors; the Protocol
// itself holds only the tables, their owners-of index, the run-seed
// lineage and the aggregated statistics.
type Protocol struct {
	cfg Config
	net *manet.Network
	nb  neighborhood.Provider
	rng *xrand.Rand // stream lineage only; rounds draw from (node, round) substreams

	// Flat-slab contact storage: tables[u] is a view over slots
	// [u·NoC, (u+1)·NoC), and slot s stores its source route in the arena
	// segment pathArena[s·pathCap : (s+1)·pathCap]. Contact values and
	// their routes for the whole network live in two contiguous
	// allocations — no per-contact pointers, nothing for the GC to chase,
	// and a maintenance round walks memory linearly. pathCap is
	// MaxContactDist+1: stored routes are shortened and bound-checked
	// to at most r hops before they are admitted.
	tables    []Table
	slots     []Contact
	pathArena []NodeID
	pathCap   int

	// heldBy[v] lists the owners whose table names v, once per entry, in
	// no particular order: the reverse of the tables, kept exact so that
	// churn expiry visits only the owners of a departed node. Serial table
	// changes update it directly (clearTable, ExpireNodes); a round's
	// changes are logged per Maintainer and applied by Maintainer.Flush.
	heldBy [][]NodeID

	// departed is the churn-expiry scratch (see ExpireNodes); lazily
	// allocated, cleared by removing only the bits it set. affected is the
	// shrunk-owner list the same call returns.
	departed *bitset.Set
	affected []NodeID

	// round numbers the selection/maintenance rounds for RNG stream
	// derivation: round k gives node u the substream (u, k) of rng's
	// lineage. Serial and sharded rounds allocate ids identically (one per
	// round), which is what pins them bit-identical.
	round uint64

	// tableGen advances whenever a contact table may have changed: a round
	// id is handed out (every selection or maintenance round takes one
	// first), or churn expiry or a reset clears entries. A Querier's walk
	// memo is valid for one (network epoch, tableGen) pair.
	tableGen uint64

	// maint serves the serial MaintainAll round; nil until its first call.
	maint *Maintainer

	// Selection statistics beyond raw message counts.
	stats Stats
}

// Stats aggregates protocol-level events that message counters cannot
// express.
type Stats struct {
	// CSQLaunched counts contact-selection walks started.
	CSQLaunched int64
	// CSQSucceeded counts walks that returned a contact.
	CSQSucceeded int64
	// ContactsSelected counts contacts ever admitted to a table.
	ContactsSelected int64
	// ContactsLost counts contacts dropped by maintenance.
	ContactsLost int64
	// Recoveries counts successful local-recovery splices.
	Recoveries int64
	// RecoveryFailures counts validation walks abandoned mid-path.
	RecoveryFailures int64
	// BoundDrops counts contacts dropped by maintenance rule 4 (validated
	// path length outside [lower, r]).
	BoundDrops int64
	// TooFarDrops is the part of BoundDrops above r; the rest fell below lower.
	TooFarDrops int64
	// ContactsExpired counts contact entries dropped by churn — a table
	// cleared because its owner left the network, or an entry removed
	// because the contact node itself went down. Expiry is bookkeeping,
	// not protocol traffic, so it is counted separately from ContactsLost.
	ContactsExpired int64
}

// add accumulates o into s; used when per-worker Maintainers flush their
// local tallies into the protocol. Every field is a plain sum, so the
// aggregate is independent of flush order.
func (s *Stats) add(o Stats) {
	s.CSQLaunched += o.CSQLaunched
	s.CSQSucceeded += o.CSQSucceeded
	s.ContactsSelected += o.ContactsSelected
	s.ContactsLost += o.ContactsLost
	s.Recoveries += o.Recoveries
	s.RecoveryFailures += o.RecoveryFailures
	s.BoundDrops += o.BoundDrops
	s.TooFarDrops += o.TooFarDrops
	s.ContactsExpired += o.ContactsExpired
}

// New creates a CARD protocol over net using the given neighborhood
// provider. The provider's radius must equal cfg.R.
func New(net *manet.Network, nb neighborhood.Provider, cfg Config, rng *xrand.Rand) (*Protocol, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nb.R() != cfg.R {
		return nil, fmt.Errorf("card: neighborhood radius %d != config R %d", nb.R(), cfg.R)
	}
	n := net.N()
	p := &Protocol{
		cfg:       cfg,
		net:       net,
		nb:        nb,
		rng:       rng,
		tables:    make([]Table, n),
		heldBy:    make([][]NodeID, n),
		slots:     make([]Contact, n*cfg.NoC),
		pathArena: make([]NodeID, n*cfg.NoC*(cfg.MaxContactDist+1)),
		pathCap:   cfg.MaxContactDist + 1,
	}
	for i := range p.tables {
		p.tables[i] = Table{owner: NodeID(i), p: p}
	}
	return p, nil
}

// setSeg copies path into slot's arena segment and returns the stored
// slice (capacity-clamped so appends cannot scribble the next segment).
// Stored routes never exceed pathCap nodes: walk acceptance bounds them to
// r hops and maintenance re-admission bound-checks the shortened length.
func (p *Protocol) setSeg(slot int, path []NodeID) []NodeID {
	if len(path) > p.pathCap {
		panic(fmt.Sprintf("card: route of %d nodes exceeds arena segment %d", len(path), p.pathCap))
	}
	seg := p.pathArena[slot*p.pathCap : slot*p.pathCap+len(path) : (slot+1)*p.pathCap]
	copy(seg, path)
	return seg[:len(path):len(path)]
}

// hold records in the owners-of index that owner's table gained an entry
// naming c. Serial only.
func (p *Protocol) hold(owner, c NodeID) { p.heldBy[c] = append(p.heldBy[c], owner) }

// release records that owner's table lost one entry naming c. Serial only.
func (p *Protocol) release(owner, c NodeID) {
	h := p.heldBy[c]
	i := slices.Index(h, owner)
	if i < 0 {
		panic(fmt.Sprintf("card: owners-of index lost entry %d→%d", owner, c))
	}
	h[i] = h[len(h)-1]
	p.heldBy[c] = h[:len(h)-1]
}

// clearTable drops every contact of u's table, releasing each from the
// owners-of index, and returns how many it dropped. Serial only.
func (p *Protocol) clearTable(u NodeID) int {
	cs := p.tables[u].Contacts()
	for i := range cs {
		p.release(u, cs[i].ID)
		cs[i] = Contact{}
	}
	p.tables[u].n = 0
	return len(cs)
}

// NextRound allocates the next RNG round id. Every selection or
// maintenance round — serial or sharded — consumes exactly one id, and
// node u draws its round randomness from the substream (u, id), so equal
// round sequences give equal results at any worker count. The engine's
// round fan-out calls this once per round before sharding nodes across
// Maintainers. Handing out an id also announces that tables are about to
// change (tableGen).
func (p *Protocol) NextRound() uint64 {
	r := p.round
	p.round++
	p.tableGen++
	return r
}

// Config returns the active configuration (defaults filled).
func (p *Protocol) Config() Config { return p.cfg }

// Network returns the underlying substrate.
func (p *Protocol) Network() *manet.Network { return p.net }

// Neighborhood returns the neighborhood provider.
func (p *Protocol) Neighborhood() neighborhood.Provider { return p.nb }

// Table returns node u's contact table.
func (p *Protocol) Table(u NodeID) *Table { return &p.tables[u] }

// Stats returns a copy of the protocol-level statistics.
func (p *Protocol) Stats() Stats { return p.stats }

// TotalContacts returns the number of live contacts across all tables.
func (p *Protocol) TotalContacts() int {
	n := 0
	for i := range p.tables {
		n += int(p.tables[i].n)
	}
	return n
}

// ContactDistances returns the multiset of current contact path lengths,
// sorted ascending. Used by the ablation benches to compare methods.
func (p *Protocol) ContactDistances() []int {
	var ds []int
	for i := range p.tables {
		for _, c := range p.tables[i].Contacts() {
			ds = append(ds, c.Hops())
		}
	}
	sort.Ints(ds)
	return ds
}
