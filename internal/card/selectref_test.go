package card

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

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

// refWalkEM is the rescanning EM walk. Its visited set is its own, a plain
// []bool made per walk, so it shares no stamp representation with the code
// under test: it depends on Neighbors, Adjacent, accept and the RNG only.
func refWalkEM(m *Maintainer, route []NodeID) ([]NodeID, bool) {
	visited := make([]bool, m.p.net.N())
	for _, n := range route {
		visited[n] = true
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
				if visited[y] {
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
		visited[y] = true
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
			m.held = append(m.held, heldEdit{u, path[len(path)-1], true})
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

// walkCounts tallies what an equivalence test covered.
type walkCounts struct{ cases, found, exhausted, directed int }

// compareWalk runs one EM walk from u through edge node e on the production
// walk (ma) and on the rescanning reference (mb), both reseeded to walkSeed
// from identical state, and requires equal route, exhaustion flag, message
// tallies, statistics and — the sharpest check that every rng.Intn saw the
// same candidate count — the same next draw from the generator.
func compareWalk(t *testing.T, id string, ma, mb *Maintainer, u, e NodeID, walkSeed uint64, n *walkCounts) {
	t.Helper()
	route, ok := ma.p.nb.AppendRoute(nil, u, e)
	if !ok {
		t.Fatalf("%s: no route %d->%d to an edge node", id, u, e)
	}
	id = fmt.Sprintf("%s u %d e %d", id, u, e)
	ma.rng.Reseed(walkSeed)
	mb.rng.Reseed(walkSeed)
	ma.computeIneligible(u)
	refStampIneligible(mb, u)
	gotPath, gotEx := ma.walkEM(route)
	wantPath, wantEx := refWalkEM(mb, route)
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
	n.cases++
	if gotPath != nil {
		n.found++
	}
	if gotEx {
		n.exhausted++
	}
	if ma.p.net.Directed() {
		n.directed++
	}
}

// TestWalkEMMatchesRescan drives the frame-list walk and the rescanning
// reference from identical state over random (graph, source, edge node,
// seed) cases.
func TestWalkEMMatchesRescan(t *testing.T) {
	var n walkCounts
	for seed := uint64(1); seed <= 4; seed++ {
		for _, w := range refWorlds(seed, 220) {
			// Small r makes exhausted regions (many returns to a frame)
			// common; larger r makes long successful walks common. At r = R+1
			// the edge node itself is the depth r-1 frame and every push is a
			// leaf; at R+2 every frame above it returns from drained children.
			for _, r := range []int{3, 4, 5, 7, 12} {
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
					compareWalk(t, fmt.Sprintf("%s seed %d r %d", w.name, seed, r), ma, mb, u, e, pick.Uint64(), &n)
				}
			}
		}
	}
	if n.cases < 1600 || n.found < 100 || n.exhausted < 700 || n.directed < 500 {
		t.Fatalf("thin coverage: %+v", n)
	}
}

// spiderNet is a star: a hub with four arms of armLen nodes, 12 m apart
// under the 15 m radio, so the arms touch only at the hub.
func spiderNet(t *testing.T, armLen int) *manet.Network {
	coords := [][2]float64{{500, 500}}
	for _, dir := range [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		for k := 1; k <= armLen; k++ {
			coords = append(coords, [2]float64{500 + 12*dir[0]*float64(k), 500 + 12*dir[1]*float64(k)})
		}
	}
	return customNet(t, coords)
}

// cliqueNet is n nodes on a 1 m grid: everyone hears everyone.
func cliqueNet(t *testing.T, n int) *manet.Network {
	coords := make([][2]float64, n)
	for i := range coords {
		coords[i] = [2]float64{500 + float64(i%4), 500 + float64(i/4)}
	}
	return customNet(t, coords)
}

// TestWalkEMMatchesRescanShapes is TestWalkEMMatchesRescan on the graphs
// the frame refilter and the r-shell drain single out, walking from every
// source through every one of its edge nodes: a line (every frame has one
// candidate, and the drain frame one child), a star (the hub's frame is
// returned to from each exhausted arm), a clique (at r = R+1 the whole
// region is ineligible and drains in one frame; at r = R+3 every return
// finds its list emptied by the subtree below) and dense fields whose r
// stays inside the 2R cover, so every walk exhausts its region.
func TestWalkEMMatchesRescanShapes(t *testing.T) {
	oracle := testProviders[0].new
	shapes := []struct {
		w   refWorld
		cfg Config
	}{
		{refWorld{"line", lineNet(40), oracle}, Config{R: 2, MaxContactDist: 3}},
		{refWorld{"line", lineNet(40), oracle}, Config{R: 2, MaxContactDist: 9}},
		{refWorld{"star", spiderNet(t, 7), oracle}, Config{R: 2, MaxContactDist: 4}},
		{refWorld{"star", spiderNet(t, 7), oracle}, Config{R: 2, MaxContactDist: 6}},
		{refWorld{"star", spiderNet(t, 7), oracle}, Config{R: 1, MaxContactDist: 5}},
		{refWorld{"clique", cliqueNet(t, 14), oracle}, Config{R: 1, MaxContactDist: 2}},
		{refWorld{"clique", cliqueNet(t, 14), oracle}, Config{R: 1, MaxContactDist: 4}},
		{refWorld{"covered", staticNet(3, 120, 90), oracle}, Config{R: 2, MaxContactDist: 4}},
		{refWorld{"covered/directed", directedNet(3, 120, 100), oracle}, Config{R: 2, MaxContactDist: 4}},
	}
	var n walkCounts
	for _, sh := range shapes {
		sh.cfg.NoC, sh.cfg.Method = 4, EM
		pa, pb := protocolPair(t, sh.w, sh.cfg, 7)
		ma, mb := pa.NewMaintainer(), pb.NewMaintainer()
		id := fmt.Sprintf("%s R %d r %d", sh.w.name, sh.cfg.R, sh.cfg.MaxContactDist)
		before := n
		for u := NodeID(0); int(u) < sh.w.net.N(); u++ {
			for _, e := range pa.nb.EdgeNodes(u) {
				compareWalk(t, id, ma, mb, u, e, uint64(u)<<20|uint64(e), &n)
			}
		}
		if n.cases == before.cases {
			t.Fatalf("%s: no walk ran", id)
		}
		// Undirected, r <= 2R: the r-ball lies inside the edge cover.
		if !sh.w.net.Directed() && sh.cfg.MaxContactDist <= 2*sh.cfg.R && n.found != before.found {
			t.Fatalf("%s: a walk found a contact inside the source's cover", id)
		}
	}
	if n.found < 100 || n.exhausted < 1000 || n.directed < 100 {
		t.Fatalf("thin coverage: %+v", n)
	}
}

// TestWalkEMStampWrap crosses the byte generation's wrap twice: 600
// consecutive walks on one Maintainer must equal the same walks run on
// Maintainers fresh from NewMaintainer, whose stamps are all zero. Walks
// 1, 256 and 511 — the three that share generation 1 — leave from one
// corner of the field and every other walk from the opposite corner, out of
// each other's reach, so the corner's stamps from the earlier lap are still
// in the array when the generation comes round again.
func TestWalkEMStampWrap(t *testing.T) {
	w := refWorlds(11, 400)[0]
	cfg := Config{R: 2, MaxContactDist: 5, NoC: 4, Method: EM}
	p, err := New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// 5 hops of 55 m reach 275 m; the corners are 565 m apart.
	var near, far []NodeID
	for u := NodeID(0); int(u) < w.net.N(); u++ {
		pos := w.net.Position(u)
		switch {
		case len(p.nb.EdgeNodes(u)) == 0:
		case pos.X < 120 && pos.Y < 120:
			near = append(near, u)
		case pos.X > 520 && pos.Y > 520:
			far = append(far, u)
		}
	}
	if len(near) == 0 || len(far) < 5 {
		t.Fatalf("field has %d near-corner and %d far-corner sources", len(near), len(far))
	}
	old := p.NewMaintainer()
	pick := xrand.New(12)
	for walk := 1; walk <= 600; walk++ {
		u := far[pick.Intn(len(far))]
		if walk%255 == 1 {
			u = near[0]
		}
		edges := p.nb.EdgeNodes(u)
		route, _ := p.nb.AppendRoute(nil, u, edges[pick.Intn(len(edges))])
		walkSeed := pick.Uint64()
		var res [2]string
		for i, m := range []*Maintainer{old, p.NewMaintainer()} {
			m.rng.Reseed(walkSeed)
			m.computeIneligible(u)
			m.pend.Reset()
			path, ex := m.walkEM(route)
			res[i] = fmt.Sprint(path, ex, m.pend, m.rng.Uint64())
		}
		if res[0] != res[1] {
			t.Fatalf("walk %d (generation %d) from %d: reused Maintainer %s, fresh one %s", walk, old.visitGen, u, res[0], res[1])
		}
	}
}

// TestKeepUnvisited checks the compaction against a naive append-filter:
// kept nodes and their order, dst aliasing src, and nothing written at or
// past dst[len(src)].
func TestKeepUnvisited(t *testing.T) {
	const guard = NodeID(-7)
	check := func(src []NodeID, visited []uint8, gen uint8, alias bool) error {
		var want []NodeID
		for _, y := range src {
			if visited[y] != gen {
				want = append(want, y)
			}
		}
		// Both buffers end in two cells the compaction must not reach.
		in := append(slices.Clone(src), guard, guard)
		dst := in
		if !alias {
			dst = slices.Repeat([]NodeID{guard}, len(in))
		}
		k := keepUnvisited(dst, in[:len(src)], visited, gen)
		if !slices.Equal(dst[:k], want) {
			return fmt.Errorf("src %v visited %v gen %d alias %v: kept %v, want %v", src, visited, gen, alias, dst[:k], want)
		}
		if tail := dst[len(src):]; tail[0] != guard || tail[1] != guard {
			return fmt.Errorf("src %v alias %v: wrote past len(src): %v", src, alias, dst)
		}
		if !alias && !slices.Equal(in[:len(src)], src) {
			return fmt.Errorf("src %v: source modified to %v", src, in)
		}
		return nil
	}
	visited := []uint8{3, 0, 3, 7, 3, 0}
	for _, tc := range []struct {
		name string
		src  []NodeID
		gen  uint8
	}{
		{"empty", nil, 3},
		{"none stamped", []NodeID{1, 3, 5, 1}, 3},
		{"all stamped", []NodeID{0, 2, 4, 2}, 3},
		{"mixed", []NodeID{5, 4, 3, 2, 1, 0}, 3},
		{"first and last kept", []NodeID{1, 0, 2, 4, 5}, 3},
		{"stale stamp is not the generation", []NodeID{3, 3}, 8},
	} {
		for _, alias := range []bool{false, true} {
			if err := check(tc.src, visited, tc.gen, alias); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
	prop := func(ids []uint8, stamps [256]uint8, gen uint8, alias bool) bool {
		src := make([]NodeID, len(ids))
		for i, id := range ids {
			stamps[id] %= 4 // few generations, so many nodes carry gen%4
			src[i] = NodeID(id)
		}
		err := check(src, stamps[:], gen%4, alias)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
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
					m.Flush()
					for u := NodeID(0); int(u) < w.net.N(); u += 2 {
						if p.tables[u].Len() > 0 {
							dropAt(p, u, 0)
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
				for u := NodeID(round); int(u) < w.net.N(); u += 3 {
					for _, p := range []*Protocol{pa, pb} {
						if p.tables[u].Len() > 0 {
							dropAt(p, u, p.tables[u].Len()/2)
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
