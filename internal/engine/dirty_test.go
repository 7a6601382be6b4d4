package engine

import (
	"reflect"
	"runtime"
	"testing"

	"card/internal/neighborhood"
)

// dirtyNet is the mobile scenario the dirty-set tests share: fast, dense,
// pause-free random waypoint, so every refresh moves edges somewhere in
// the (single, well-connected) component and the r-hop expansion reaches
// everyone — the all-dirty regime.
func dirtyNet(nodes int) NetworkConfig {
	nc := testNet(nodes)
	nc.Mobility = RandomWaypoint
	nc.MinSpeed, nc.MaxSpeed, nc.Pause = 5, 15, 0
	nc.DirtyMaintenance = true
	return nc
}

// runDirtyTrace mirrors runMaintTrace on nc, which may enable
// DirtyMaintenance.
func runDirtyTrace(t *testing.T, nc NetworkConfig, w width) maintSnapshot {
	t.Helper()
	defer runtime.GOMAXPROCS(w.setBuild())
	e := newEngine(t, nc, testCfg())
	added := e.SelectContacts()
	runtime.GOMAXPROCS(w.run)
	e.Advance(8) // four maintenance rounds under mobility
	return snapshot(e, added)
}

// TestDirtyParallelEquivalence extends the round fan-out contract to
// restricted rounds: with DirtyMaintenance on, the sharded dirty-list
// rounds must be bit-identical to the serial dirty-list loop at
// GOMAXPROCS 1 — tables, stats, accounting and reachability — at every
// equivWidths width. Run with -race (CI does) to validate the sharding.
func TestDirtyParallelEquivalence(t *testing.T) {
	base := runDirtyTrace(t, dirtyNet(400), serial)
	for _, w := range equivWidths {
		t.Run(w.name, func(t *testing.T) {
			requireSame(t, runDirtyTrace(t, dirtyNet(400), w), base)
		})
	}
}

// TestDirtyParallelEquivalenceChurn repeats the dirty equivalence contract
// under node churn: expiry victims drop below NoC and must re-enter the
// round list identically on the serial and sharded paths.
func TestDirtyParallelEquivalenceChurn(t *testing.T) {
	nc := dirtyNet(300)
	nc.ChurnMeanUp, nc.ChurnMeanDown = 20, 5
	base := runDirtyTrace(t, nc, serial)
	for _, w := range equivWidths {
		t.Run(w.name, func(t *testing.T) {
			requireSame(t, runDirtyTrace(t, nc, w), base)
		})
	}
}

// TestDirtyMatchesFullWhenAllDirty is the dirty-vs-full regression test:
// on a scenario whose every refresh dirties the whole network (fast dense
// pause-free mobility — one moved edge anywhere in the connected component
// expands to everyone within max(R, MaxContactDist) hops), the restricted
// rounds must reproduce the full rounds bit-for-bit: contact tables,
// protocol statistics, per-category message totals (validation traffic
// included — nothing was skipped because nothing was clean) and
// reachability. LastRoundNodes is asserted per round so the scenario
// cannot silently stop exercising the all-dirty case.
func TestDirtyMatchesFullWhenAllDirty(t *testing.T) {
	ncDirty := dirtyNet(400)
	ncFull := ncDirty
	ncFull.DirtyMaintenance = false
	cfg := testCfg() // ValidatePeriod 2

	ed := newEngine(t, ncDirty, cfg)
	ef := newEngine(t, ncFull, cfg)
	if a, b := ed.SelectContacts(), ef.SelectContacts(); a != b {
		t.Fatalf("initial selection diverges: dirty %d, full %d", a, b)
	}
	for round := 1; round <= 4; round++ {
		ed.Advance(cfg.ValidatePeriod)
		ef.Advance(cfg.ValidatePeriod)
		if got, n := ed.LastRoundNodes(), ed.Nodes(); got != n {
			t.Fatalf("round %d processed %d/%d nodes — scenario no longer keeps every node dirty, the comparison below would be vacuous", round, got, n)
		}
		if ed.Stats() != ef.Stats() {
			t.Fatalf("round %d stats diverge:\n dirty %+v\n full  %+v", round, ed.Stats(), ef.Stats())
		}
		if ed.Messages() != ef.Messages() {
			t.Fatalf("round %d message totals diverge:\n dirty %+v\n full  %+v", round, ed.Messages(), ef.Messages())
		}
	}
	pd, pf := ed.Protocol(), ef.Protocol()
	for u := 0; u < ed.Nodes(); u++ {
		if !reflect.DeepEqual(pd.Table(NodeID(u)).Contacts(), pf.Table(NodeID(u)).Contacts()) {
			t.Fatalf("node %d contact table diverges:\n dirty %+v\n full  %+v",
				u, pd.Table(NodeID(u)).Contacts(), pf.Table(NodeID(u)).Contacts())
		}
	}
	if a, b := ed.MeanReachability(1), ef.MeanReachability(1); a != b {
		t.Fatalf("reachability diverges: dirty %v, full %v", a, b)
	}
}

// TestDirtyRestrictsQuietRounds pins the optimization itself: on a static
// network nothing is ever dirtied, so once tables have filled, maintenance
// rounds must process only the below-NoC stragglers — a strict subset of
// the network — and skip their validation traffic.
func TestDirtyRestrictsQuietRounds(t *testing.T) {
	nc := testNet(400)
	nc.DirtyMaintenance = true
	e := newEngine(t, nc, testCfg())
	e.SelectContacts()
	before := e.Messages().Validation
	e.Advance(8)
	if last := e.LastRoundNodes(); last >= e.Nodes() {
		t.Errorf("static round processed %d/%d nodes — dirty restriction inert", last, e.Nodes())
	}
	// The skipped nodes' trivially-successful validation walks must not
	// have been simulated: validation traffic stays below what even one
	// full static round would charge (sum of all stored path hops).
	var fullRound int64
	p := e.Protocol()
	for u := 0; u < e.Nodes(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			fullRound += int64(c.Hops())
		}
	}
	if grew := e.Messages().Validation - before; grew >= 4*fullRound && fullRound > 0 {
		t.Errorf("4 static dirty rounds charged %d validation hops (full rounds would charge ~%d) — skipping inert", grew, 4*fullRound)
	}
}

// TestDirtyOracleRetention checks the view-retention half of the dirty
// machinery: after a mobile dirty-mode run, every retained neighborhood
// view must equal what a fresh oracle computes from scratch on the same
// snapshot.
func TestDirtyOracleRetention(t *testing.T) {
	e := newEngine(t, dirtyNet(300), testCfg())
	e.SelectContacts()
	for step := 0; step < 6; step++ {
		e.Advance(1.5) // off-period steps: refreshes with and without rounds
		fresh := neighborhood.NewOracle(e.Network(), e.Config().R)
		for u := 0; u < e.Nodes(); u++ {
			got := e.Neighborhood().Members(NodeID(u))
			want := fresh.Members(NodeID(u))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d node %d: retained view %v, fresh view %v", step, u, got, want)
			}
		}
	}
}
