package card

import (
	"slices"
	"testing"
	"testing/quick"

	"card/internal/manet"
	"card/internal/neighborhood"
	"card/internal/xrand"
)

func TestNewRejectsRadiusMismatch(t *testing.T) {
	net := staticNet(1, 50, 50)
	nb := neighborhood.NewOracle(net, 3)
	_, err := New(net, nb, Config{R: 4, MaxContactDist: 10}, xrand.New(1))
	if err == nil {
		t.Error("radius mismatch accepted")
	}
}

func TestSelectRespectsNoC(t *testing.T) {
	net := staticNet(2, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 20, NoC: 3, Method: EM}
	p := newProtocol(t, net, cfg, 7)
	selectAll(p, 0)
	for u := 0; u < net.N(); u++ {
		if got := p.Table(NodeID(u)).Len(); got > 3 {
			t.Fatalf("node %d has %d contacts, NoC=3", u, got)
		}
	}
}

func TestSelectEMInvariants(t *testing.T) {
	net := staticNet(3, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 6, Method: EM}
	p := newProtocol(t, net, cfg, 8)
	selectAll(p, 0)
	nb := p.Neighborhood()
	g := net.Graph()
	total := 0
	for u := 0; u < net.N(); u++ {
		src := NodeID(u)
		tab := p.Table(src)
		for _, c := range tab.Contacts() {
			total++
			// Path structure: starts at owner, ends at contact, hop-valid.
			if c.Path[0] != src || c.Path[len(c.Path)-1] != c.ID {
				t.Fatalf("node %d contact %d: bad path endpoints %v", u, c.ID, c.Path)
			}
			checkPathValid(t, net, c.Path)
			if !pathIsSimple(c.Path) {
				t.Fatalf("node %d contact %d: path self-intersects: %v", u, c.ID, c.Path)
			}
			// Walk length within (2R, r].
			if c.Hops() <= 2*cfg.R || c.Hops() > cfg.MaxContactDist {
				t.Fatalf("node %d contact %d: hops %d outside (2R, r]", u, c.ID, c.Hops())
			}
			// EM guarantee: true hop distance > 2R (Fig. 1(b) non-overlap).
			bfs := g.BFS(src)
			if int(bfs.Dist[c.ID]) <= 2*cfg.R {
				t.Fatalf("node %d contact %d: true distance %d <= 2R", u, c.ID, bfs.Dist[c.ID])
			}
			// Non-overlap with the source's neighborhood.
			if slices.ContainsFunc(nb.Members(src), func(x NodeID) bool { return slices.Contains(nb.Members(c.ID), x) }) {
				t.Fatalf("node %d contact %d: neighborhoods overlap", u, c.ID)
			}
		}
		// The Contact_List check guarantees contacts are pairwise more than
		// R hops apart (no contact lies in another's neighborhood). Note it
		// does NOT guarantee their neighborhoods are disjoint — the paper's
		// mechanism only checks membership, not 2R separation, between
		// contacts.
		cs := tab.Contacts()
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				if nb.Contains(cs[i].ID, cs[j].ID) || nb.Contains(cs[j].ID, cs[i].ID) {
					t.Fatalf("node %d: contacts %d and %d within R hops of each other",
						u, cs[i].ID, cs[j].ID)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no contacts selected anywhere — network too sparse for the test")
	}
}

func TestSelectPM1Invariants(t *testing.T) {
	net := staticNet(4, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 6, Method: PM1}
	p := newProtocol(t, net, cfg, 9)
	selectAll(p, 0)
	g := net.Graph()
	found := 0
	for u := 0; u < net.N(); u++ {
		src := NodeID(u)
		for _, c := range p.Table(src).Contacts() {
			found++
			checkPathValid(t, net, c.Path)
			if !pathIsSimple(c.Path) {
				t.Fatalf("PM1 stored path self-intersects: %v", c.Path)
			}
			if c.Hops() <= cfg.R || c.Hops() > cfg.MaxContactDist {
				t.Fatalf("PM1 contact hops %d outside (R, r]", c.Hops())
			}
			// Eligibility ensured source outside contact's neighborhood.
			if int(g.BFS(src).Dist[c.ID]) <= cfg.R {
				t.Fatalf("PM1 contact at true distance <= R")
			}
		}
	}
	if found == 0 {
		t.Fatal("PM1 selected nothing")
	}
}

func TestSelectPM2DistanceBand(t *testing.T) {
	net := staticNet(5, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 6, Method: PM2}
	p := newProtocol(t, net, cfg, 10)
	selectAll(p, 0)
	for u := 0; u < net.N(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			// The acceptance coin is flipped on the raw walk length (only
			// > 2R under eq. 2), but the stored route is the compacted,
			// loop-free path: guaranteed within (R, r] — the eligibility
			// check proves true distance > R, and compaction only shrinks.
			// A net length in (R, 2R] is the PM "lost opportunity" that
			// maintenance rule 4 prunes at the next round.
			if c.Hops() <= cfg.R || c.Hops() > cfg.MaxContactDist {
				t.Fatalf("PM2 stored path length %d outside (R, r]", c.Hops())
			}
			if !pathIsSimple(c.Path) {
				t.Fatalf("PM2 stored path self-intersects: %v", c.Path)
			}
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	for run := 0; run < 2; run++ {
		nets := [2]*manet.Network{}
		tabs := [2][]NodeID{}
		for i := range nets {
			nets[i] = staticNet(6, 200, 50)
			cfg := Config{R: 3, MaxContactDist: 14, NoC: 4, Method: EM}
			nb := neighborhood.NewOracle(nets[i], cfg.R)
			p, err := New(nets[i], nb, cfg, xrand.New(77))
			if err != nil {
				t.Fatal(err)
			}
			selectAll(p, 0)
			for u := 0; u < nets[i].N(); u++ {
				for _, c := range p.Table(NodeID(u)).Contacts() {
					tabs[i] = append(tabs[i], c.ID)
				}
			}
		}
		if len(tabs[0]) != len(tabs[1]) {
			t.Fatalf("different contact counts across identical runs: %d vs %d", len(tabs[0]), len(tabs[1]))
		}
		for i := range tabs[0] {
			if tabs[0][i] != tabs[1][i] {
				t.Fatalf("contact tables differ at %d", i)
			}
		}
		if nets[0].Totals() != nets[1].Totals() {
			t.Fatalf("message counters differ across identical runs")
		}
	}
}

func TestSelectCountsMessages(t *testing.T) {
	net := staticNet(7, 250, 50)
	cfg := Config{R: 3, MaxContactDist: 14, NoC: 4, Method: EM}
	p := newProtocol(t, net, cfg, 11)
	selectAll(p, 0)
	if net.Totals().Get(manet.CatCSQ) == 0 {
		t.Error("selection generated no CSQ messages")
	}
	st := p.Stats()
	if st.CSQLaunched == 0 {
		t.Error("no CSQs launched")
	}
	if st.CSQSucceeded != st.ContactsSelected {
		t.Errorf("CSQSucceeded %d != ContactsSelected %d", st.CSQSucceeded, st.ContactsSelected)
	}
	if st.CSQSucceeded > st.CSQLaunched {
		t.Error("more successes than launches")
	}
}

func TestPMBacktracksMoreThanEM(t *testing.T) {
	// The paper's Fig. 4 headline: the probabilistic method pays far more
	// backtracking than the edge method. Replicate the figure's setup
	// (500 nodes, 710x710 m, 50 m range, R=3, r=20) over two seeds.
	var pmBack, emBack int64
	for seed := uint64(0); seed < 2; seed++ {
		for _, m := range []Method{PM2, EM} {
			net := staticNet(100+seed, 500, 50)
			cfg := Config{R: 3, MaxContactDist: 20, NoC: 5, Method: m}
			p := newProtocol(t, net, cfg, 200+seed)
			selectAll(p, 0)
			if m == EM {
				emBack += net.Totals().Get(manet.CatBacktrack)
			} else {
				pmBack += net.Totals().Get(manet.CatBacktrack)
			}
		}
	}
	if pmBack <= emBack {
		t.Errorf("PM backtracking (%d) not greater than EM (%d)", pmBack, emBack)
	}
}

func TestSelectOnDisconnectedNodeIsGraceful(t *testing.T) {
	// A node with no edge nodes (isolated or tiny component) selects nothing.
	net := lineNet(2) // 2-node path, R=3 covers everything: no edge nodes
	cfg := Config{R: 3, MaxContactDist: 8, NoC: 4, Method: EM}
	p := newProtocol(t, net, cfg, 12)
	added := selectNode(p, 0, 0)
	if added != 0 || p.Table(0).Len() != 0 {
		t.Errorf("selected %d contacts on a 2-node network", added)
	}
}

func TestSelectSaturatesBelowNoC(t *testing.T) {
	// With r barely above 2R the eligible band is thin: far fewer contacts
	// than NoC must be found (the paper's saturation argument, Fig. 7).
	net := staticNet(8, 300, 50)
	tight := Config{R: 3, MaxContactDist: 7, NoC: 12, Method: EM}
	p := newProtocol(t, net, tight, 13)
	selectAll(p, 0)
	mean := float64(p.TotalContacts()) / float64(net.N())
	if mean >= 6 {
		t.Errorf("tight band selected %.1f contacts/node on average; expected far below NoC=12", mean)
	}

	wide := Config{R: 3, MaxContactDist: 20, NoC: 12, Method: EM}
	net2 := staticNet(8, 300, 50)
	p2 := newProtocol(t, net2, wide, 13)
	selectAll(p2, 0)
	if p2.TotalContacts() <= p.TotalContacts() {
		t.Errorf("wider band (r=20: %d) selected no more contacts than tight (r=7: %d)",
			p2.TotalContacts(), p.TotalContacts())
	}
}

func TestContactDistancesSorted(t *testing.T) {
	net := staticNet(9, 200, 50)
	cfg := Config{R: 2, MaxContactDist: 12, NoC: 4, Method: EM}
	p := newProtocol(t, net, cfg, 14)
	selectAll(p, 0)
	ds := p.ContactDistances()
	for i := 1; i < len(ds); i++ {
		if ds[i] < ds[i-1] {
			t.Fatal("ContactDistances not sorted")
		}
	}
}

// TestSelectedRoutesAreChordFree: the route a CSQ reply brings home has been
// cut by every relay on the way back, so no node on it hears a later one
// other than its successor — for all three methods, on scalar links and on
// one-way lossy ones (where only a two-way link is a chord).
func TestSelectedRoutesAreChordFree(t *testing.T) {
	for _, w := range queryWorlds(t, 21, 300)[:2] { // scalar, directed-lossy; oracle provider
		for _, method := range []Method{EM, PM1, PM2} {
			cfg := Config{R: 2, MaxContactDist: 10, NoC: 5, Method: method}
			p, err := New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(9))
			if err != nil {
				t.Fatal(err)
			}
			selectAll(p, 0)
			if p.TotalContacts() < w.net.N() {
				t.Fatalf("%s %v: only %d contacts selected", w.name, method, p.TotalContacts())
			}
			for u := 0; u < w.net.N(); u++ {
				for _, c := range p.Table(NodeID(u)).Contacts() {
					if !pathIsSimple(c.Path) {
						t.Fatalf("%s %v node %d: route %v self-intersects", w.name, method, u, c.Path)
					}
					checkPathValid(t, w.net, c.Path)
					checkChordFree(t, w.net, c.Path)
				}
			}
		}
	}
}

func TestQuickSelectInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 100 + rng.Intn(150)
		net := staticNet(seed, n, 55)
		method := Method(rng.Intn(3))
		r1 := 2 + rng.Intn(2)        // R in {2,3}
		rr := 2*r1 + 2 + rng.Intn(8) // r in [2R+2, 2R+9]
		noc := 1 + rng.Intn(6)       // NoC in [1,6]
		cfg := Config{R: r1, MaxContactDist: rr, NoC: noc, Method: method}
		nb := neighborhood.NewOracle(net, r1)
		p, err := New(net, nb, cfg, xrand.New(seed+5))
		if err != nil {
			return false
		}
		selectAll(p, 0)
		// The stored (loop-free) path length floor: EM's edge-list
		// exclusion proves true distance > 2R, while the PM methods only
		// prove > R — their raw walk cleared the method's band, but the
		// compacted route may net shorter (rule 4 prunes it next round).
		lo := r1 + 1
		if method == EM {
			lo = 2*r1 + 1
		}
		for u := 0; u < n; u++ {
			tab := p.Table(NodeID(u))
			if tab.Len() > noc {
				return false
			}
			for _, c := range tab.Contacts() {
				if c.Hops() < lo || c.Hops() > rr {
					return false
				}
				if !pathIsSimple(c.Path) {
					return false
				}
				if c.Path[0] != NodeID(u) || c.Path[len(c.Path)-1] != c.ID {
					return false
				}
				for i := 0; i+1 < len(c.Path); i++ {
					if !net.Adjacent(c.Path[i], c.Path[i+1]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
