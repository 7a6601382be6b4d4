package card

import (
	"strings"
	"testing"

	"card/internal/bordercast"
	"card/internal/flood"
	"card/internal/manet"
	"card/internal/topology"
	"card/internal/xrand"
)

// TestQueryViaMatchesPrimitives pins QueryVia against the node-target
// primitives it routes to: for random src ≠ dst pairs (reachable or not),
// on a static field and on a directed lossy one, the flood and bordercast
// schemes report the Found / Messages / PathHops the primitive reports on
// a private recorder, and charge the shared recorder the same
// per-category delta.
func TestQueryViaMatchesPrimitives(t *testing.T) {
	static, cfg := staticCfg()
	rich := static
	rich.RangeSpread, rich.Loss, rich.LossRetries = 0.4, 0.2, 3
	for name, nc := range map[string]NetworkConfig{"static": static, "spread+loss": rich} {
		s := newSim(t, nc, cfg)
		s.SelectContacts()
		e := s.Engine
		net := e.Network()
		bc, err := bordercast.New(net, e.Neighborhood(), bordercast.Config{Zone: cfg.R, QD: bordercast.QD2})
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			found bool
			msgs  int64
			hops  int
		}
		primitives := map[WorkloadScheme]func(rec *manet.Counters, src, dst NodeID) outcome{
			SchemeFlood: func(rec *manet.Counters, src, dst NodeID) outcome {
				var scan topology.BFSResult
				scan.Run(net.Graph(), src, -1)
				r := flood.Search(rec, &scan, dst, []int{-1}, true)
				return outcome{r.Found, r.Messages, r.PathHops}
			},
			SchemeBordercast: func(rec *manet.Counters, src, dst NodeID) outcome {
				r := bc.Query(rec, src, dst)
				return outcome{r.Found, r.Messages, r.PathHops}
			},
		}
		rng := xrand.New(11)
		n := s.Nodes()
		unreachable := 0
		for i := 0; i < 250; i++ {
			src := NodeID(rng.Intn(n))
			dst := NodeID(rng.Intn(n - 1))
			if dst >= src {
				dst++
			}
			for scheme, primitive := range primitives {
				var rec manet.Counters
				want := primitive(&rec, src, dst)
				before := net.Totals()
				r, err := s.QueryVia(scheme, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if got := (outcome{r.Found, r.Messages, r.PathHops}); got != want {
					t.Fatalf("%s %s %d->%d: QueryVia %+v != primitive %+v", name, scheme, src, dst, got, want)
				}
				if delta := net.Totals().DiffSince(before); delta != rec {
					t.Fatalf("%s %s %d->%d: recorder delta %v != primitive's %v", name, scheme, src, dst, delta, rec)
				}
				if scheme == SchemeFlood && !want.found {
					unreachable++
				}
			}
		}
		if unreachable == 0 {
			t.Errorf("%s: every pair was connected; the dead-search arm went untested", name)
		}
	}
}

// TestQueryViaRejectsBadInput pins the error contract: an unknown scheme
// or an out-of-range node id is an error, never an index panic; every
// registered scheme answers; and a node asking for itself is answered
// locally at zero messages under every scheme.
func TestQueryViaRejectsBadInput(t *testing.T) {
	nc, cfg := staticCfg()
	s := newSim(t, nc, cfg)
	s.SelectContacts()
	if _, err := s.QueryVia("zone-flooding", 0, 1); err == nil || !strings.Contains(err.Error(), "zone-flooding") {
		t.Errorf("unknown scheme: err = %v, want an error naming it", err)
	}
	n := NodeID(s.Nodes())
	for _, pair := range [][2]NodeID{{-1, 0}, {0, -1}, {n, 0}, {0, n}} {
		if _, err := s.QueryVia(SchemeFlood, pair[0], pair[1]); err == nil {
			t.Errorf("QueryVia(%d, %d) accepted an out-of-range node", pair[0], pair[1])
		}
	}
	for _, scheme := range append(SchemeNames(), "") {
		r, err := s.QueryVia(scheme, 5, 5)
		if err != nil {
			t.Fatalf("%q: %v", scheme, err)
		}
		if want := (DiscoveryResult{Found: true, Holder: 5}); r != want {
			t.Errorf("%q: self query = %+v, want %+v", scheme, r, want)
		}
	}
}
