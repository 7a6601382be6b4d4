package card

import (
	"fmt"
	"reflect"
	"testing"

	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/topology"
	"card/internal/xrand"
)

// The selection path before it was made to do each piece of work once,
// kept as the oracle the production code is compared against: the
// ineligible set recomputed from member lists for every CSQ, and an EM
// walk that rescans the full adjacency every time a node is on top.

// refIneligible is the from-scratch ineligible set of source u: the
// literal union of member lists the paper's refusal test amounts to.
func refIneligible(p *Protocol, u NodeID) []bool {
	in := make([]bool, p.net.N())
	mark := func(x NodeID) {
		for _, y := range p.nb.Members(x) {
			in[y] = true
		}
	}
	mark(u)
	for _, c := range p.tables[u].Contacts() {
		mark(c.ID)
	}
	if p.cfg.Method == EM {
		for _, e := range p.nb.EdgeNodes(u) {
			mark(e)
		}
	}
	return in
}

// refStampIneligible loads refIneligible into m's stamp array under a new
// generation, as the old per-CSQ computeIneligible did.
func refStampIneligible(m *Maintainer, u NodeID) {
	m.ineligGen++
	for x, in := range refIneligible(m.p, u) {
		if in {
			m.ineligible[x] = m.ineligGen
		}
	}
}

// refWalkEM is the rescanning EM walk.
func refWalkEM(m *Maintainer, route []NodeID) ([]NodeID, bool) {
	m.visitGen++
	gen := m.visitGen
	for _, n := range route {
		m.visited[n] = gen
	}
	stack := append([]NodeID(nil), route...)
	r := m.p.cfg.MaxContactDist
	directed := m.p.net.Directed()
	var cand []NodeID
	for {
		x := stack[len(stack)-1]
		d := len(stack) - 1
		cand = cand[:0]
		if d < r {
			for _, y := range m.p.net.Neighbors(x) {
				if m.visited[y] == gen {
					continue
				}
				if directed && !m.p.net.Adjacent(y, x) {
					continue
				}
				cand = append(cand, y)
			}
		}
		if len(cand) == 0 {
			m.sendHop(manet.CatBacktrack)
			stack = stack[:len(stack)-1]
			if len(stack) < len(route) {
				m.sendHops(manet.CatBacktrack, len(stack)-1)
				return nil, true
			}
			continue
		}
		y := cand[m.rng.Intn(len(cand))]
		m.visited[y] = gen
		stack = append(stack, y)
		m.sendHop(manet.CatCSQ)
		if m.accept(y, len(stack)-1) {
			return m.acceptContact(stack), false
		}
	}
}

// refSelectContacts is the old selection round: the ineligible set is
// rebuilt for every CSQ and EM walks rescan. PM walks were not touched, so
// the production walkPM serves both sides.
func refSelectContacts(m *Maintainer, u NodeID, now float64) int {
	p := m.p
	t := &p.tables[u]
	if t.Len() >= p.cfg.NoC {
		return 0
	}
	edges := append([]NodeID(nil), p.nb.EdgeNodes(u)...)
	m.rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	added, failures := 0, 0
	for _, e := range edges {
		if t.Len() >= p.cfg.NoC {
			break
		}
		m.stats.CSQLaunched++
		route, ok := p.nb.AppendRoute(nil, u, e)
		if !ok {
			continue
		}
		refStampIneligible(m, u)
		m.sendHops(manet.CatCSQ, len(route)-1)
		var path []NodeID
		var exhausted bool
		if p.cfg.Method == EM {
			path, exhausted = refWalkEM(m, route)
		} else {
			path, exhausted = m.walkPM(route)
		}
		if path != nil {
			t.add(Contact{ID: path[len(path)-1], Path: path, SelectedAt: now, LastValidated: now})
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

// directedNet builds a static field with per-node radio ranges spread
// ±50 % around txRange, so a good share of links are one-way.
func directedNet(seed uint64, n int, txRange float64) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, testArea, rng)
	ranges := make([]float64, n)
	for i := range ranges {
		ranges[i] = txRange * (1 + 0.5*rng.Range(-1, 1))
	}
	return manet.NewNetwork(mobility.NewStatic(pts, testArea),
		manet.Config{Link: topology.LinkModel{Uniform: txRange, Ranges: ranges}}, xrand.New(seed+1000))
}

// refWorld is one (graph, provider) pairing the equivalence tests run on.
type refWorld struct {
	name string
	net  *manet.Network
	nb   func(net *manet.Network, r int) neighborhood.Provider
}

func refWorlds(seed uint64, n int) []refWorld {
	var ws []refWorld
	for i, prov := range testProviders {
		s := seed + 50*uint64(i) // a different field per provider
		ws = append(ws,
			refWorld{"undirected/" + prov.name, staticNet(s, n, 55), prov.new},
			refWorld{"directed/" + prov.name, directedNet(s, n, 65), prov.new})
	}
	return ws
}

// protocolPair builds two protocols with equal seeds over one network,
// each with its own provider instance.
func protocolPair(t *testing.T, w refWorld, cfg Config, seed uint64) (a, b *Protocol) {
	t.Helper()
	var err error
	if a, err = New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(seed)); err != nil {
		t.Fatal(err)
	}
	if b, err = New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(seed)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestWalkEMMatchesRescan drives the frame-list walk and the rescanning
// reference from identical state over random (graph, source, edge node,
// seed) cases: equal route, exhaustion flag, message tallies, statistics
// and — the sharpest check that every rng.Intn saw the same candidate
// count — the same next draw from the generator.
func TestWalkEMMatchesRescan(t *testing.T) {
	cases, found, exhaustedWalks, directedCases := 0, 0, 0, 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, w := range refWorlds(seed, 220) {
			// Small r makes exhausted regions (many returns to a frame)
			// common; larger r makes long successful walks common.
			for _, r := range []int{5, 7, 12} {
				cfg := Config{R: 2, MaxContactDist: r, NoC: 4, Method: EM}
				pa, pb := protocolPair(t, w, cfg, seed)
				ma, mb := pa.NewMaintainer(), pb.NewMaintainer()
				pick := xrand.New(seed*977 + uint64(r))
				for i := 0; i < 30; i++ {
					u := NodeID(pick.Intn(w.net.N()))
					edges := pa.nb.EdgeNodes(u)
					if len(edges) == 0 {
						continue
					}
					e := edges[pick.Intn(len(edges))]
					route, ok := pa.nb.AppendRoute(nil, u, e)
					if !ok {
						t.Fatalf("%s: no route %d->%d to an edge node", w.name, u, e)
					}
					walkSeed := pick.Uint64()
					ma.rng.Reseed(walkSeed)
					mb.rng.Reseed(walkSeed)
					ma.computeIneligible(u)
					refStampIneligible(mb, u)
					gotPath, gotEx := ma.walkEM(route)
					wantPath, wantEx := refWalkEM(mb, route)
					id := fmt.Sprintf("%s seed %d r %d u %d e %d", w.name, seed, r, u, e)
					if !reflect.DeepEqual(gotPath, wantPath) || gotEx != wantEx {
						t.Fatalf("%s: walk (%v, %v), rescan reference (%v, %v)", id, gotPath, gotEx, wantPath, wantEx)
					}
					if ma.pend != mb.pend {
						t.Fatalf("%s: tallies %v, reference %v", id, ma.pend, mb.pend)
					}
					if ma.stats != mb.stats {
						t.Fatalf("%s: stats %+v, reference %+v", id, ma.stats, mb.stats)
					}
					if a, b := ma.rng.Uint64(), mb.rng.Uint64(); a != b {
						t.Fatalf("%s: generators diverged after the walk", id)
					}
					cases++
					if gotPath != nil {
						found++
					}
					if gotEx {
						exhaustedWalks++
					}
					if w.net.Directed() {
						directedCases++
					}
				}
			}
		}
	}
	if cases < 1000 || found < 100 || exhaustedWalks < 100 || directedCases < 300 {
		t.Fatalf("thin coverage: %d cases, %d found, %d exhausted, %d directed", cases, found, exhaustedWalks, directedCases)
	}
}

// checkStampedSet asserts m's current ineligible generation marks exactly
// the from-scratch set for u's table as it stands.
func checkStampedSet(t *testing.T, id string, m *Maintainer, u NodeID) {
	t.Helper()
	for x, want := range refIneligible(m.p, u) {
		if got := m.ineligible[x] == m.ineligGen; got != want {
			t.Fatalf("%s: node %d after %d contacts: stamped[%d] = %v, recompute says %v",
				id, u, m.p.tables[u].Len(), x, got, want)
		}
	}
}

// TestIneligibleTracksTable pins the per-round set: once selectContacts
// returns, the stamps it extended on every Table.add equal a recompute
// over the final table. A round under NoC = j replays the first j adds of
// the same round under any larger NoC (same substream, same shuffle, same
// walks), so sweeping NoC checks the set after every add, not just the
// last; the refill pass checks rounds that start from a part-filled table.
func TestIneligibleTracksTable(t *testing.T) {
	grew := 0
	for _, method := range []Method{EM, PM1, PM2} {
		for _, w := range refWorlds(9, 200) {
			for noc := 1; noc <= 4; noc++ {
				cfg := Config{R: 2, MaxContactDist: 9, NoC: noc, Method: method, MaxFailedWalks: 6}
				p, err := New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(3))
				if err != nil {
					t.Fatal(err)
				}
				m := p.NewMaintainer()
				id := fmt.Sprintf("%s %v NoC %d", w.name, method, noc)
				for round := uint64(0); round < 2; round++ {
					for u := NodeID(0); int(u) < w.net.N(); u++ {
						before := p.tables[u].Len()
						if before == noc || len(p.nb.EdgeNodes(u)) == 0 {
							continue // the round returns before it needs the set
						}
						m.SelectNode(u, 0, round)
						checkStampedSet(t, id, m, u)
						if p.tables[u].Len() > before && before > 0 {
							grew++
						}
					}
					// Drop every other node's oldest contact so the second
					// round starts from part-filled tables.
					for u := 0; u < w.net.N(); u += 2 {
						if p.tables[u].Len() > 0 {
							p.tables[u].removeAt(0)
						}
					}
				}
			}
		}
	}
	if grew == 0 {
		t.Fatal("no round extended a part-filled table; the incremental path went unexercised")
	}
}

// TestSelectMatchesReference runs whole selection rounds — production code
// on one protocol, the per-CSQ-recompute, rescanning reference on its
// twin — and requires identical tables, statistics and message tallies.
func TestSelectMatchesReference(t *testing.T) {
	for _, method := range []Method{EM, PM1, PM2} {
		for _, w := range refWorlds(5, 250) {
			cfg := Config{R: 2, MaxContactDist: 10, NoC: 4, Method: method, MaxFailedWalks: 8}
			pa, pb := protocolPair(t, w, cfg, 21)
			mb := pb.NewMaintainer()
			for round := 0; round < 3; round++ {
				// Both protocols record into the one network, so tallies are
				// compared as deltas around each side's flush.
				t0 := w.net.Totals()
				pa.SelectAll(float64(round))
				t1 := w.net.Totals()
				id := pb.NextRound()
				for u := NodeID(0); int(u) < w.net.N(); u++ {
					mb.rng.Reseed(pb.rng.StreamSeed(uint64(u), id))
					refSelectContacts(mb, u, float64(round))
				}
				mb.Flush()
				name := fmt.Sprintf("%s %v round %d", w.name, method, round)
				if got, want := t1.DiffSince(t0), w.net.Totals().DiffSince(t1); got != want {
					t.Fatalf("%s: tallies %v, reference %v", name, got, want)
				}
				for u := 0; u < w.net.N(); u++ {
					if got, want := pa.tables[u].Contacts(), pb.tables[u].Contacts(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: node %d table %v, reference %v", name, u, got, want)
					}
				}
				if pa.Stats() != pb.Stats() {
					t.Fatalf("%s: stats %+v, reference %+v", name, pa.Stats(), pb.Stats())
				}
				// Thin both tables the same way so later rounds refill.
				for u := round; u < w.net.N(); u += 3 {
					for _, p := range []*Protocol{pa, pb} {
						if p.tables[u].Len() > 0 {
							p.tables[u].removeAt(p.tables[u].Len() / 2)
						}
					}
				}
			}
			if pa.Stats().ContactsSelected == 0 {
				t.Fatalf("%s %v: nothing selected", w.name, method)
			}
		}
	}
}
