package engine

import (
	"reflect"
	"runtime"
	"testing"

	proto "card/internal/card"
)

// maintSnapshot captures everything the equivalence contract covers:
// every node's contact table (ids, full paths, timestamps), the protocol
// statistics, and the per-category message accounting.
type maintSnapshot struct {
	tables [][]proto.Contact
	stats  proto.Stats
	msgs   MessageCounts
	added  int
	reach  float64
}

// runMaintTrace drives a mobile scenario through initial selection plus
// several scheduled maintenance rounds with the given worker bound and
// GOMAXPROCS, and snapshots the resulting protocol state.
func runMaintTrace(t *testing.T, workers, procs int) maintSnapshot {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	nc := testNet(400)
	nc.Mobility = RandomWaypoint
	nc.MinSpeed, nc.MaxSpeed, nc.Pause = 1, 15, 3
	cfg := testCfg() // ValidatePeriod 2
	e := newEngine(t, nc, cfg)
	e.SetMaintainWorkers(workers)
	s := maintSnapshot{added: e.SelectContacts()}
	e.Advance(8) // four maintenance rounds under mobility
	p := e.Protocol()
	s.tables = make([][]proto.Contact, e.Nodes())
	for u := 0; u < e.Nodes(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			cp := c
			cp.Path = append([]NodeID(nil), c.Path...)
			s.tables[u] = append(s.tables[u], cp)
		}
	}
	s.stats = e.Stats()
	s.msgs = e.Messages()
	s.reach = e.MeanReachability(1)
	return s
}

// TestMaintainParallelEquivalence pins the round fan-out contract:
// bit-identical contact tables, protocol statistics and recorder totals
// between the serial maintenance path and the sharded one, across a
// mobility trace, at GOMAXPROCS 1 and 4 and several worker bounds. Run
// with -race to validate the sharding (CI does).
func TestMaintainParallelEquivalence(t *testing.T) {
	base := runMaintTrace(t, 1, 1) // serial reference at GOMAXPROCS=1
	cases := []struct {
		name           string
		workers, procs int
	}{
		{"serial-procs4", 1, 4},
		{"workers4-procs1", 4, 1},
		{"workers4-procs4", 4, 4},
		{"auto-procs4", 0, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := runMaintTrace(t, c.workers, c.procs)
			if got.added != base.added {
				t.Errorf("initial selection added %d contacts, serial added %d", got.added, base.added)
			}
			if got.stats != base.stats {
				t.Errorf("stats diverge:\n got  %+v\n want %+v", got.stats, base.stats)
			}
			if got.msgs != base.msgs {
				t.Errorf("message totals diverge:\n got  %+v\n want %+v", got.msgs, base.msgs)
			}
			if got.reach != base.reach {
				t.Errorf("reachability diverges: %v vs %v", got.reach, base.reach)
			}
			for u := range base.tables {
				if !reflect.DeepEqual(got.tables[u], base.tables[u]) {
					t.Fatalf("node %d contact table diverges:\n got  %+v\n want %+v",
						u, got.tables[u], base.tables[u])
				}
			}
		})
	}
}

// TestMaintainRoundIdsSharedWithSerial checks that forced rounds through
// the public entry points allocate RNG round ids exactly like the serial
// protocol loop: interleaving Engine.Maintain with direct protocol rounds
// on a twin engine stays in lockstep.
func TestMaintainRoundIdsSharedWithSerial(t *testing.T) {
	build := func() *Engine {
		nc := testNet(200)
		e := newEngine(t, nc, testCfg())
		return e
	}
	a, b := build(), build()
	a.SetMaintainWorkers(4)
	b.SetMaintainWorkers(1)
	a.SelectContacts()
	b.SelectContacts()
	for i := 0; i < 3; i++ {
		a.Maintain()
		b.Maintain()
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverge after interleaved forced rounds:\n a %+v\n b %+v", a.Stats(), b.Stats())
	}
	if a.Messages() != b.Messages() {
		t.Errorf("accounting diverges:\n a %+v\n b %+v", a.Messages(), b.Messages())
	}
}

// TestSteadyRoundKeepsContacts is the Fig. 13 reading of a steady mobile
// field: with local recovery on, a maintenance round keeps most of the
// contact table instead of re-selecting it. On citywide-rwp-1k, warmed to
// t = 20 s, each of five rounds loses at most 15 % of the contacts it
// started with, and at most 10 % to rule 4's "too far" — routes are stored
// and re-spliced at the length their relays cut them to, not at the length
// the CSQ meandered (stored verbatim a round lost 42–45 %; measured now
// 7.6–9.7 %).
func TestSteadyRoundKeepsContacts(t *testing.T) {
	preset, err := LookupPreset("citywide-rwp-1k")
	if err != nil {
		t.Fatal(err)
	}
	e, err := preset.New(1)
	if err != nil {
		t.Fatal(err)
	}
	e.SelectContacts()
	e.Advance(20)
	for round := 1; round <= 5; round++ {
		table, before := e.Protocol().TotalContacts(), e.Stats()
		e.Advance(e.Config().ValidatePeriod)
		after := e.Stats()
		lost, tooFar := after.ContactsLost-before.ContactsLost, after.TooFarDrops-before.TooFarDrops
		t.Logf("round %d: %d contacts, %d lost (%.1f %%), %d too far, %d too near", round, table, lost,
			100*float64(lost)/float64(table), tooFar, after.BoundDrops-before.BoundDrops-tooFar)
		if table < 4*e.Nodes() {
			t.Fatalf("round %d starts with %d contacts over %d nodes", round, table, e.Nodes())
		}
		if 100*lost > 15*int64(table) {
			t.Errorf("round %d lost %d of %d contacts, more than 15 %%", round, lost, table)
		}
		if 100*tooFar > 10*int64(table) {
			t.Errorf("round %d dropped %d of %d contacts as too far, more than 10 %%", round, tooFar, table)
		}
	}
}
