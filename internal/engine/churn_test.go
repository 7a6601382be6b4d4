package engine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	proto "card/internal/card"
	"card/internal/workload"
)

// churnNet is a mobile scenario with aggressive churn: short up/down
// phases so several nodes flip per maintenance round.
func churnNet(nodes int) NetworkConfig {
	nc := testNet(nodes)
	nc.Mobility = RandomWaypoint
	nc.MinSpeed, nc.MaxSpeed, nc.Pause = 1, 15, 3
	nc.ChurnMeanUp, nc.ChurnMeanDown = 12, 5
	return nc
}

// runChurnTrace drives a churned scenario through selection, scheduled
// maintenance rounds and a query batch with the given worker bound and
// GOMAXPROCS, and snapshots everything the equivalence contract covers —
// including the query results, which must not depend on the fan-out.
func runChurnTrace(t *testing.T, workers, procs int) (maintSnapshot, []proto.QueryResult) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	nc := churnNet(400)
	cfg := testCfg() // ValidatePeriod 2
	e := newEngine(t, nc, cfg)
	e.SetMaintainWorkers(workers)
	s := maintSnapshot{added: e.SelectContacts()}
	e.Advance(8) // four maintenance rounds under mobility + churn
	pairs := e.RandomPairs(120, 99)
	res := e.BatchQuery(pairs)
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
	return s, res
}

// TestChurnParallelEquivalence mirrors TestMaintainParallelEquivalence
// under node churn: contact tables, statistics, recorder totals and batch
// query results must be bit-identical between the serial loops and the
// sharded ones at GOMAXPROCS 1 and 4 (run with -race in CI). Churn is the
// adversarial case for the fan-out — down nodes skip rounds and expiry
// rewrites tables between rounds — so this pins that skipping and expiry
// stay on the serial path's deterministic schedule.
func TestChurnParallelEquivalence(t *testing.T) {
	base, baseRes := runChurnTrace(t, 1, 1) // serial reference at GOMAXPROCS=1
	if base.stats.ContactsExpired == 0 {
		t.Fatal("scenario produced no churn expiries; the test is not exercising churn")
	}
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
			got, gotRes := runChurnTrace(t, c.workers, c.procs)
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
			if !reflect.DeepEqual(gotRes, baseRes) {
				t.Errorf("batch query results diverge")
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

// TestChurnExpiresContacts checks the protocol-facing churn semantics on
// a live engine: a node that goes down vanishes from every table, and
// down nodes hold no contacts of their own.
func TestChurnExpiresContacts(t *testing.T) {
	e := newEngine(t, churnNet(300), testCfg())
	e.SelectContacts()
	e.Advance(20)
	p := e.Protocol()
	for u := 0; u < e.Nodes(); u++ {
		tab := p.Table(NodeID(u))
		if e.Network().Down(NodeID(u)) && tab.Len() != 0 {
			t.Errorf("down node %d holds %d contacts", u, tab.Len())
		}
		for _, c := range tab.Contacts() {
			if e.Network().Down(c.ID) {
				t.Errorf("node %d holds down contact %d", u, c.ID)
			}
		}
	}
	if st := e.Stats(); st.ContactsExpired == 0 {
		t.Error("20 s of aggressive churn expired no contacts")
	}
	if up := e.UpNodes(); up == 0 || up == e.Nodes() {
		t.Errorf("implausible up count %d/%d", up, e.Nodes())
	}
}

// TestChurnMeanBelowFloorRejected pins the guard against the renewal loop
// running away: a mean up- or down-time under 1 ms is a configuration
// error naming the floor, reported by New before any refresh runs. (At
// 1e-9 the first Advance never returned.)
func TestChurnMeanBelowFloorRejected(t *testing.T) {
	for _, c := range [][2]float64{{1e-9, 1e-9}, {1e-6, 5}, {5, 0.999e-3}} {
		nc := testNet(60)
		nc.ChurnMeanUp, nc.ChurnMeanDown = c[0], c[1]
		_, err := New(nc, testCfg())
		if err == nil || !strings.Contains(err.Error(), "floor") {
			t.Errorf("churn %v: New = %v, want the floor error", c, err)
		}
	}
	nc := testNet(60)
	nc.ChurnMeanUp, nc.ChurnMeanDown = 1e-3, 1e-3
	e := newEngine(t, nc, testCfg())
	e.Advance(2) // ~2000 flips per node: bounded work
	if e.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", e.Rounds())
	}
}

// TestChurnEveryNodeDown pins the degenerate world where the whole
// population is down: every node selects at t = 0 and is down by the
// first boundary (mean up-time 1 ms, mean down-time ~30 years). Every
// selected contact is expired exactly once, rounds keep firing over empty
// tables, nothing is reachable, no pair can be drawn, and every offered
// query is an offline-source arrival.
func TestChurnEveryNodeDown(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		nc := churnNet(200)
		nc.ChurnMeanUp, nc.ChurnMeanDown = 1e-3, 1e9
		nc.DirtyMaintenance = dirty
		e := newEngine(t, nc, testCfg())
		added := e.SelectContacts()
		if added == 0 || e.UpNodes() != 200 {
			t.Fatalf("dirty=%v: t=0 selection added %d with %d up", dirty, added, e.UpNodes())
		}
		e.Advance(4)
		st := e.Stats()
		if e.UpNodes() != 0 || e.Protocol().TotalContacts() != 0 || e.Rounds() != 2 {
			t.Fatalf("dirty=%v: %d up, %d contacts, %d rounds; want 0, 0, 2", dirty, e.UpNodes(), e.Protocol().TotalContacts(), e.Rounds())
		}
		if st.ContactsExpired != int64(added) || st.ContactsSelected != int64(added) || st.ContactsLost != 0 {
			t.Fatalf("dirty=%v: %d selected, %d expired, %d lost; want %d, %d, 0", dirty, st.ContactsSelected, st.ContactsExpired, st.ContactsLost, added, added)
		}
		if r := e.MeanReachability(1); r != 0 || e.Reachability(0, 1) != 0 {
			t.Fatalf("dirty=%v: reachability %v with every node down", dirty, r)
		}
		if pairs := e.RandomPairs(10, 1); len(pairs) != 0 {
			t.Fatalf("dirty=%v: drew %v from a field with every node down", dirty, pairs)
		}
		rep, err := e.RunWorkload(workload.Config{QPS: 20, Duration: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Queries == 0 || rep.SrcDown != rep.Queries || rep.Found != 0 {
			t.Fatalf("dirty=%v: %d queries, %d offline, %d found; want every query offline", dirty, rep.Queries, rep.SrcDown, rep.Found)
		}
		if e.Stats() != st || e.UpNodes() != 0 {
			t.Fatalf("dirty=%v: protocol state moved while every node was down: %+v", dirty, e.Stats())
		}
	}
}
