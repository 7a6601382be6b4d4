package card

import (
	"testing"
)

func newSim(t *testing.T, nc NetworkConfig, cfg Config) *Simulation {
	t.Helper()
	s, err := NewSimulation(nc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func staticCfg() (NetworkConfig, Config) {
	return NetworkConfig{Nodes: 300, Width: 710, Height: 710, TxRange: 50, Seed: 7},
		Config{R: 3, MaxContactDist: 16, NoC: 5}
}

func TestNewSimulationValidation(t *testing.T) {
	bad := []NetworkConfig{
		{Nodes: 1, Width: 10, Height: 10, TxRange: 5},
		{Nodes: 10, Width: 0, Height: 10, TxRange: 5},
		{Nodes: 10, Width: 10, Height: 10, TxRange: 0},
		{Nodes: 10, Width: 10, Height: 10, TxRange: 5, Mobility: MobilityKind(9)},
	}
	for i, nc := range bad {
		if _, err := NewSimulation(nc, Config{R: 2, MaxContactDist: 6}); err == nil {
			t.Errorf("case %d accepted: %+v", i, nc)
		}
	}
	nc, _ := staticCfg()
	if _, err := NewSimulation(nc, Config{R: 0, MaxContactDist: 6}); err == nil {
		t.Error("bad protocol config accepted")
	}
}

func TestEndToEndStaticDiscovery(t *testing.T) {
	nc, cfg := staticCfg()
	s := newSim(t, nc, cfg)
	if s.Nodes() != 300 {
		t.Fatalf("Nodes = %d", s.Nodes())
	}
	added := s.SelectContacts()
	if added == 0 {
		t.Fatal("no contacts selected")
	}
	before := s.MeanReachability(1)
	// Query a pair from the largest component: CARD should find most, and
	// flooding all.
	found, floodFound := 0, 0
	const q = 40
	for i := 0; i < q; i++ {
		src, dst := s.RandomPair(uint64(i))
		if r, err := s.QueryVia(SchemeCARD, src, dst); err != nil {
			t.Fatal(err)
		} else if r.Found {
			found++
		}
		if r, err := s.QueryVia(SchemeFlood, src, dst); err != nil {
			t.Fatal(err)
		} else if r.Found {
			floodFound++
		}
	}
	if floodFound != q {
		t.Errorf("flooding found %d/%d connected pairs", floodFound, q)
	}
	if found == 0 {
		t.Error("CARD found nothing")
	}
	if before <= 0 {
		t.Error("reachability not positive")
	}
	m := s.Messages()
	if m.Selection == 0 || m.Total() <= m.Selection {
		t.Errorf("message accounting empty: %+v", m)
	}
}

func TestEndToEndComparisonTraffic(t *testing.T) {
	nc, cfg := staticCfg()
	s := newSim(t, nc, cfg)
	s.SelectContacts()
	via := func(scheme WorkloadScheme, src, dst NodeID) int64 {
		r, err := s.QueryVia(scheme, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		return r.Messages
	}
	var cardMsgs, floodMsgs, bcMsgs int64
	for i := 0; i < 25; i++ {
		src, dst := s.RandomPair(uint64(100 + i))
		cardMsgs += via(SchemeCARD, src, dst)
		floodMsgs += via(SchemeFlood, src, dst)
		bcMsgs += via(SchemeBordercast, src, dst)
	}
	if cardMsgs >= floodMsgs {
		t.Errorf("CARD traffic (%d) not below flooding (%d)", cardMsgs, floodMsgs)
	}
	if bcMsgs >= floodMsgs {
		t.Errorf("bordercast traffic (%d) not below flooding (%d)", bcMsgs, floodMsgs)
	}
}

func TestMobileSimulationAdvance(t *testing.T) {
	nc, cfg := staticCfg()
	nc.Mobility = RandomWaypoint
	nc.Nodes = 200
	cfg.ValidatePeriod = 1
	s := newSim(t, nc, cfg)
	s.SelectContacts()
	s.Advance(5.5)
	if s.Now() != 5.5 {
		t.Errorf("Now = %v, want 5.5", s.Now())
	}
	st := s.Stats()
	if st.ContactsSelected == 0 {
		t.Error("no contacts ever selected")
	}
	m := s.Messages()
	if m.Validation == 0 {
		t.Error("Advance ran no validation rounds")
	}
	// Advancing by zero or negative is a no-op.
	s.Advance(0)
	s.Advance(-1)
	if s.Now() != 5.5 {
		t.Error("no-op Advance moved the clock")
	}
}

func TestTopologyCensus(t *testing.T) {
	nc, cfg := staticCfg()
	s := newSim(t, nc, cfg)
	c := s.Report(nil).Census
	if c.Links == 0 || c.MeanDegree <= 0 || c.Diameter == 0 {
		t.Errorf("census empty: %+v", c)
	}
	if c.LargestComponentFrac <= 0 || c.LargestComponentFrac > 1 {
		t.Errorf("LCC fraction = %v", c.LargestComponentFrac)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	nc, cfg := staticCfg()
	a := newSim(t, nc, cfg)
	b := newSim(t, nc, cfg)
	a.SelectContacts()
	b.SelectContacts()
	if a.Messages() != b.Messages() {
		t.Error("same-seed simulations diverged in message counts")
	}
	if a.MeanReachability(1) != b.MeanReachability(1) {
		t.Error("same-seed simulations diverged in reachability")
	}
}

func TestContactsAccessor(t *testing.T) {
	nc, cfg := staticCfg()
	s := newSim(t, nc, cfg)
	s.SelectContacts()
	total := 0
	for u := NodeID(0); int(u) < s.Nodes(); u++ {
		for _, c := range s.Contacts(u) {
			total++
			if c.Hops() <= 0 {
				t.Fatalf("contact with non-positive hops: %+v", c)
			}
		}
	}
	if total == 0 {
		t.Error("no contacts visible through accessor")
	}
}

func TestBatchQueryFacade(t *testing.T) {
	nc, cfg := staticCfg()
	s := newSim(t, nc, cfg)
	s.SelectContacts()
	pairs := s.RandomPairs(100, 42)
	if len(pairs) != 100 {
		t.Fatalf("RandomPairs drew %d, want 100", len(pairs))
	}
	res, err := s.BatchQuery(SchemeCARD, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against sequential queries on an identical simulation.
	s2 := newSim(t, nc, cfg)
	s2.SelectContacts()
	for i, p := range pairs {
		if seq, err := s2.QueryVia(SchemeCARD, p.Src, p.Dst); err != nil || seq != res[i] {
			t.Fatalf("pair %d: batch %+v != sequential %+v (%v)", i, res[i], seq, err)
		}
	}
	if s.Messages() != s2.Messages() {
		t.Errorf("batch accounting %+v != sequential %+v", s.Messages(), s2.Messages())
	}
}

func TestPresetSimulation(t *testing.T) {
	if len(Presets()) == 0 {
		t.Fatal("no presets registered")
	}
	if _, err := NewPresetSimulation("no-such", 1); err == nil {
		t.Error("unknown preset accepted")
	}
	if testing.Short() {
		t.Skip("full-size preset build is slow")
	}
	s, err := NewPresetSimulation("sparse-rescue", 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.SelectContacts() == 0 {
		t.Error("preset simulation selected no contacts")
	}
}
