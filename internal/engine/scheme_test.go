package engine

import (
	"testing"

	"card/internal/manet"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/workload"
)

// TestPresetSchemeArms runs the preset-driven scheme arms end to end:
// bordercast and rendezvous each serve a short sustained workload on the
// citywide-rwp-1k preset, and their engine-level message ledgers look the
// way the mechanisms demand — bordercast answers from zone tables and
// never registers; rendezvous pays registration traffic up front.
func TestPresetSchemeArms(t *testing.T) {
	run := func(scheme string) (*workload.Report, MessageCounts) {
		t.Helper()
		p, err := LookupPreset("citywide-rwp-1k")
		if err != nil {
			t.Fatal(err)
		}
		e, err := p.New(1)
		if err != nil {
			t.Fatal(err)
		}
		e.SelectContacts()
		rep, err := e.RunWorkload(workload.Config{
			QPS: 20, Duration: 3, Tick: 0.5,
			Resources: 16, Replicas: 2, Scheme: scheme, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, e.Messages()
	}

	bc, bcMsgs := run("bordercast")
	if bc.Queries == 0 || bc.Found == 0 {
		t.Fatalf("bordercast arm served nothing: %+v", bc)
	}
	if bcMsgs.Query == 0 {
		t.Error("bordercast arm recorded no query traffic")
	}
	if bcMsgs.Register != 0 {
		t.Errorf("bordercast arm recorded registration traffic: %d", bcMsgs.Register)
	}

	rr, rrMsgs := run("rendezvous")
	if rr.Queries == 0 || rr.Found == 0 {
		t.Fatalf("rendezvous arm served nothing: %+v", rr)
	}
	if rrMsgs.Register == 0 {
		t.Error("rendezvous arm recorded no registration traffic")
	}
	if rr.Queries != bc.Queries {
		t.Errorf("offered load differs across arms: %d vs %d", rr.Queries, bc.Queries)
	}
}

// TestBatchQueryDownSourceSendsNothing pins the down-source rule on a
// churn world for every registered scheme: a lookup from a down source is
// a miss that sends nothing, through BatchQuery and QueryVia alike, and
// leaves the recorder unchanged. The destinations are down too (one is the
// source itself), so rendezvous has nothing to register either. A down
// source holds no links, so without the rule each dead search would
// still charge its one-node component once per TTL ring.
func TestBatchQueryDownSourceSendsNothing(t *testing.T) {
	e := newEngine(t, churnNet(300), testCfg())
	e.SelectContacts()
	e.Advance(6)
	var down []NodeID
	for u := range NodeID(e.Nodes()) {
		if e.Network().Down(u) {
			down = append(down, u)
		}
	}
	if len(down) < 2 {
		t.Fatalf("%d down nodes; the world does not churn", len(down))
	}
	pairs := []Pair{{down[0], down[1]}, {down[1], down[0]}, {down[0], down[0]}}
	miss := resource.Result{PathHops: -1}
	for _, name := range append(scheme.Names(), "") {
		before := e.Network().Totals()
		res := mustBatch(t, e, name, pairs)
		for i, p := range pairs {
			r, err := e.QueryVia(name, p.Src, p.Dst)
			if err != nil {
				t.Fatal(err)
			}
			if res[i] != miss || r != miss {
				t.Errorf("%q %d -> %d from a down source: BatchQuery %+v, QueryVia %+v, want %+v", name, p.Src, p.Dst, res[i], r, miss)
			}
		}
		if delta := e.Network().Totals().DiffSince(before); delta != (manet.Counters{}) {
			t.Errorf("%q: lookups from down sources charged %v", name, delta)
		}
	}
}
