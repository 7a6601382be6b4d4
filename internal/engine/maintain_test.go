package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	proto "card/internal/card"
)

// width is the GOMAXPROCS an equivalence run builds its engine and makes
// its initial selection at (build), and the one its rounds, queries and
// traffic then run at (run).
type width struct {
	name       string
	build, run int
}

// fixed is the width that stays at GOMAXPROCS procs for the whole run.
func fixed(procs int) width {
	return width{fmt.Sprintf("workers%d-procs%d", procs, procs), procs, procs}
}

// serial is the reference every equivalence test compares against.
var serial = fixed(1)

// equivWidths are the widths the equivalence tests run against serial.
// GOMAXPROCS is the only width a fan-out reads, so setting k runs k
// workers; 3 leaves an uneven shard split. auto-procs4 builds the engine
// at GOMAXPROCS 1 and raises it to 4 before the rounds: the width is read
// each round, not at construction, so the worker pools must grow mid-run.
var equivWidths = []width{fixed(2), fixed(3), fixed(4), {"auto-procs4", 1, 4}}

// setBuild sets GOMAXPROCS to w.build and returns the setting to restore
// when the run ends; the caller switches to w.run once setup is done.
func (w width) setBuild() (restore int) { return runtime.GOMAXPROCS(w.build) }

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

// snapshot copies e's contact tables, statistics, recorder totals and
// depth-1 reachability; added is what the initial selection reported.
func snapshot(e *Engine, added int) maintSnapshot {
	s := maintSnapshot{added: added, stats: e.Stats(), msgs: e.Messages(), reach: e.MeanReachability(1)}
	s.tables = make([][]proto.Contact, e.Nodes())
	for u := range s.tables {
		for _, c := range e.Protocol().Table(NodeID(u)).Contacts() {
			c.Path = slices.Clone(c.Path)
			s.tables[u] = append(s.tables[u], c)
		}
	}
	return s
}

// requireSame fails t unless got equals the reference snapshot want.
func requireSame(t *testing.T, got, want maintSnapshot) {
	t.Helper()
	if got.added != want.added {
		t.Errorf("initial selection added %d contacts, reference added %d", got.added, want.added)
	}
	if got.stats != want.stats {
		t.Errorf("stats diverge:\n got  %+v\n want %+v", got.stats, want.stats)
	}
	if got.msgs != want.msgs {
		t.Errorf("message totals diverge:\n got  %+v\n want %+v", got.msgs, want.msgs)
	}
	if got.reach != want.reach {
		t.Errorf("reachability diverges: %v vs %v", got.reach, want.reach)
	}
	for u := range want.tables {
		if !reflect.DeepEqual(got.tables[u], want.tables[u]) {
			t.Fatalf("node %d contact table diverges:\n got  %+v\n want %+v", u, got.tables[u], want.tables[u])
		}
	}
}

// runMaintTrace drives a mobile scenario through initial selection plus
// several scheduled maintenance rounds at width w, and snapshots the
// resulting protocol state.
func runMaintTrace(t *testing.T, w width) maintSnapshot {
	t.Helper()
	defer runtime.GOMAXPROCS(w.setBuild())
	nc := testNet(400)
	nc.Mobility = RandomWaypoint
	nc.MinSpeed, nc.MaxSpeed, nc.Pause = 1, 15, 3
	e := newEngine(t, nc, testCfg()) // ValidatePeriod 2
	added := e.SelectContacts()
	runtime.GOMAXPROCS(w.run)
	e.Advance(8) // four maintenance rounds under mobility
	return snapshot(e, added)
}

// TestMaintainParallelEquivalence pins the round fan-out contract:
// bit-identical contact tables, protocol statistics and recorder totals
// between the serial maintenance path (GOMAXPROCS 1) and the sharded one
// at every equivWidths width, across a mobility trace. Run with -race to
// validate the sharding (CI does).
func TestMaintainParallelEquivalence(t *testing.T) {
	base := runMaintTrace(t, serial)
	for _, w := range equivWidths {
		t.Run(w.name, func(t *testing.T) {
			requireSame(t, runMaintTrace(t, w), base)
		})
	}
}

// TestMaintainRoundIdsSharedWithSerial checks that forced rounds through
// the public entry points allocate RNG round ids exactly like the serial
// protocol loop: interleaving sharded Engine.Maintain rounds with
// Protocol.MaintainAll on a twin engine stays in lockstep.
func TestMaintainRoundIdsSharedWithSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, b := newEngine(t, testNet(200), testCfg()), newEngine(t, testNet(200), testCfg())
	a.SelectContacts()
	b.SelectContacts()
	for i := 0; i < 3; i++ {
		a.Maintain()
		b.Protocol().MaintainAll(b.Now())
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
