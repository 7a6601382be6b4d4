package card

import (
	"reflect"
	"slices"
	"testing"

	"card/internal/manet"
)

func TestMaintainStaticKeepsAllContacts(t *testing.T) {
	net := staticNet(20, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 5, Method: EM}
	p := newProtocol(t, net, cfg, 30)
	p.SelectAll(0)
	before := p.TotalContacts()
	if before == 0 {
		t.Fatal("nothing selected")
	}
	// Sum of path hops of the contacts that will be validated, and their
	// routes as stored.
	var wantHops int64
	routes := map[[2]NodeID][]NodeID{}
	for u := 0; u < net.N(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			wantHops += int64(c.Hops())
			routes[[2]NodeID{NodeID(u), c.ID}] = slices.Clone(c.Path)
		}
	}
	p.MaintainAll(2)
	// An intact route validates to itself (the engine's dirty-set invariant):
	// only a spliced route is ever rewritten.
	for u := 0; u < net.N(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			if old, ok := routes[[2]NodeID{NodeID(u), c.ID}]; ok && !slices.Equal(old, c.Path) {
				t.Fatalf("node %d contact %d: intact route %v rewritten to %v", u, c.ID, old, c.Path)
			}
		}
	}
	// Static topology: nothing may be lost. The count may GROW, though:
	// under-NoC tables retry selection with fresh randomness each round
	// (the paper's Fig. 13 shows exactly this creep).
	if got := p.TotalContacts(); got < before {
		t.Errorf("static maintenance lost contacts: %d -> %d", before, got)
	}
	if lost := p.Stats().ContactsLost; lost != 0 {
		t.Errorf("static maintenance lost %d contacts", lost)
	}
	if got := net.Totals().Get(manet.CatValidate); got != wantHops {
		t.Errorf("validate messages = %d, want %d (sum of pre-round path hops)", got, wantHops)
	}
}

func TestMaintainDropsOutOfBoundContacts(t *testing.T) {
	net := lineNet(30)
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 1, Method: EM}
	p := newProtocol(t, net, cfg, 31)
	// Inject a fabricated over-long (but hop-valid) contact path 0..12:
	// 12 hops > r=10, must be dropped by rule 4. The slab arena only
	// admits routes within the r-hop bound (the protocol never stores
	// longer ones), so splice the oversized path into the slot directly.
	path := make([]NodeID, 13)
	for i := range path {
		path[i] = NodeID(i)
	}
	inject(p, 0, Contact{ID: 12, Path: path[:1]})
	p.slots[0].Path = path
	maintainNode(p, 0, 1)
	for _, c := range p.Table(0).Contacts() {
		if c.ID == 12 {
			t.Fatal("rule 4 did not drop the over-long contact")
		}
	}
	if st := p.Stats(); st.BoundDrops != 1 || st.TooFarDrops != 1 {
		t.Errorf("BoundDrops = %d, TooFarDrops = %d, want 1 and 1", st.BoundDrops, st.TooFarDrops)
	}
}

func TestMaintainDropsTooCloseContacts(t *testing.T) {
	net := lineNet(30)
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 1, Method: EM}
	p := newProtocol(t, net, cfg, 32)
	// A 3-hop contact: below the EM lower bound 2R=4.
	inject(p, 0, Contact{ID: 3, Path: []NodeID{0, 1, 2, 3}})
	maintainNode(p, 0, 1)
	for _, c := range p.Table(0).Contacts() {
		if c.ID == 3 {
			t.Fatal("rule 4 did not drop the too-close contact")
		}
	}
	if st := p.Stats(); st.BoundDrops != 1 || st.TooFarDrops != 0 {
		t.Errorf("BoundDrops = %d, TooFarDrops = %d, want 1 and 0", st.BoundDrops, st.TooFarDrops)
	}
}

func TestMaintainRefillsDeficit(t *testing.T) {
	net := staticNet(22, 300, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 4, Method: EM}
	p := newProtocol(t, net, cfg, 33)
	p.SelectAll(0)
	// Wipe node 0's table and confirm maintenance refills it.
	src := NodeID(0)
	had := p.Table(src).Len()
	if had == 0 {
		t.Skip("node 0 found no contacts in this topology")
	}
	p.clearTable(src)
	maintainNode(p, src, 5)
	if p.Table(src).Len() == 0 {
		t.Error("maintenance did not refill an emptied table")
	}
}

// validateOnce runs one path validation on a fresh maintainer and flushes
// its accounting, so tests observe stats and message totals as the serial
// entry points would produce them. validatePath draws no randomness, so no
// round id is involved.
func validateOnce(p *Protocol, c *Contact) ([]NodeID, bool) {
	m := p.NewMaintainer()
	path, ok := m.validatePath(c)
	m.Flush()
	return path, ok
}

func TestLocalRecoverySplicesPath(t *testing.T) {
	// Hand-built scenario: contact path 0-1-2-3-4-5 where node 2 vanishes
	// (teleports away), but node 1 still reaches node 3 through relay 6
	// within its 2-hop neighborhood (1-6 and 6-3 are both ~14.1 m < 15 m).
	//
	//   row:   0(0,0) 1(10,0) 2(20,0) 3(30,0) 4(40,0) 5(50,0)
	//   relay: 6(20,10)
	net := customNet(t, [][2]float64{
		{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {50, 0},
		{20, 10},
	})
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 1, Method: EM, ValidatePeriod: 1}
	p := newProtocol(t, net, cfg, 34)
	c := &Contact{ID: 5, Path: []NodeID{0, 1, 2, 3, 4, 5}}
	p.Table(0).add(*c)

	// Break the path: move node 2 far away.
	teleport(net, 2, 500, 500)

	newPath, ok := validateOnce(p, c)
	if !ok {
		t.Fatal("local recovery failed despite available relays")
	}
	checkPathValid(t, net, newPath)
	if newPath[0] != 0 || newPath[len(newPath)-1] != 5 {
		t.Fatalf("recovered path endpoints wrong: %v", newPath)
	}
	if p.Stats().Recoveries == 0 {
		t.Error("recovery not recorded in stats")
	}
	if net.Totals().Get(manet.CatRecovery) == 0 {
		t.Error("recovery hops not counted")
	}
}

func TestLocalRecoverySkipsToLaterPathNodes(t *testing.T) {
	// Node 2 AND node 3 vanish; node 1's neighborhood (R=3) still contains
	// node 4 via relays 6 and 7, so recovery should skip both missing hops.
	//
	//   row:    0(0,0) 1(10,0) 2(20,0) 3(30,0) 4(40,0) 5(50,0)
	//   relays: 6(20,10) 7(30,10)   — 1-6, 6-7, 7-4 all within 15 m
	net := customNet(t, [][2]float64{
		{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {50, 0},
		{20, 10}, {30, 10},
	})
	cfg := Config{R: 3, MaxContactDist: 10, NoC: 1, Method: EM}
	p := newProtocol(t, net, cfg, 35)
	c := &Contact{ID: 5, Path: []NodeID{0, 1, 2, 3, 4, 5}}
	p.Table(0).add(*c)
	teleport(net, 2, 500, 500)
	teleport(net, 3, 500, 400)

	newPath, ok := validateOnce(p, c)
	if !ok {
		t.Fatal("recovery failed despite a relay route around two missing hops")
	}
	checkPathValid(t, net, newPath)
	for _, n := range newPath {
		if n == 2 || n == 3 {
			t.Fatalf("recovered path still contains vanished node: %v", newPath)
		}
	}
}

func TestLocalRecoverySpliceCompactsLoops(t *testing.T) {
	// Geometry forcing the recovery splice to double back through a node
	// already on the rebuilt prefix. Contact path 0-1-2-3; node 2 vanishes.
	// Node 1 cannot reach 3 directly (16 m > 15 m), and its only route to 3
	// goes back through 0 and relay 4: splicing [1,0,4,3] onto the prefix
	// [0,1] yields the self-intersecting route 0-1-0-4-3, which inflated
	// Hops() from 2 to 4 before compaction.
	//
	//   0(0,0) — 1(12,0) — 2(18,-8) — 3(12,-16)
	//   relay 4(0,-13): 0-4 = 13 m, 4-3 = 12.4 m
	net := customNet(t, [][2]float64{
		{0, 0}, {12, 0}, {18, -8}, {12, -16},
		{0, -13},
	})
	cfg := Config{R: 3, MaxContactDist: 10, NoC: 1, Method: EM}
	p := newProtocol(t, net, cfg, 37)
	c := &Contact{ID: 3, Path: []NodeID{0, 1, 2, 3}}
	p.Table(0).add(*c)
	teleport(net, 2, 500, 500)

	newPath, ok := validateOnce(p, c)
	if !ok {
		t.Fatal("recovery failed despite relay route 1-0-4-3")
	}
	checkPathValid(t, net, newPath)
	if !pathIsSimple(newPath) {
		t.Fatalf("recovered path self-intersects: %v", newPath)
	}
	checkChordFree(t, net, newPath)
	if newPath[0] != 0 || newPath[len(newPath)-1] != 3 {
		t.Fatalf("recovered path endpoints wrong: %v", newPath)
	}
	if want := []NodeID{0, 4, 3}; !reflect.DeepEqual(newPath, want) {
		t.Fatalf("recovered path = %v, want %v (loop through 0 compacted)", newPath, want)
	}
	if p.Stats().Recoveries == 0 {
		t.Error("recovery not recorded in stats")
	}
}

func TestDisableLocalRecoveryLosesContact(t *testing.T) {
	net := customNet(t, [][2]float64{
		{0, 0}, {10, 0}, {20, 0}, {30, 0}, {40, 0}, {50, 0},
		{20, 10},
	})
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 1, Method: EM, DisableLocalRecovery: true}
	p := newProtocol(t, net, cfg, 36)
	c := &Contact{ID: 5, Path: []NodeID{0, 1, 2, 3, 4, 5}}
	p.Table(0).add(*c)
	teleport(net, 2, 500, 500)
	if _, ok := validateOnce(p, c); ok {
		t.Fatal("recovery disabled but path still validated")
	}
	if p.Stats().RecoveryFailures != 1 {
		t.Errorf("RecoveryFailures = %d, want 1", p.Stats().RecoveryFailures)
	}
}

func TestMaintainUnderMobilityKeepsPathsValid(t *testing.T) {
	net := mobileNet(t, 40, 250, 50)
	cfg := Config{R: 3, MaxContactDist: 16, NoC: 5, Method: EM, ValidatePeriod: 1}
	p := newProtocol(t, net, cfg, 41)
	p.SelectAll(0)
	for step := 1; step <= 10; step++ {
		tm := float64(step)
		net.RefreshAt(tm)
		p.MaintainAll(tm)
		// Every surviving contact path must be valid on the snapshot its
		// maintenance round just validated against.
		for u := 0; u < net.N(); u++ {
			for _, c := range p.Table(NodeID(u)).Contacts() {
				if c.LastValidated != tm {
					t.Fatalf("t=%v: contact %d of node %d not revalidated", tm, c.ID, u)
				}
				checkPathValid(t, net, c.Path)
				if c.Hops() > cfg.MaxContactDist || c.Hops() < 2*cfg.R {
					t.Fatalf("t=%v: contact hops %d outside bounds", tm, c.Hops())
				}
			}
		}
	}
	st := p.Stats()
	if st.Recoveries == 0 {
		t.Error("10 s of RWP mobility triggered no local recoveries")
	}
	if st.ContactsLost == 0 {
		t.Error("10 s of RWP mobility lost no contacts at all (suspicious)")
	}
}
