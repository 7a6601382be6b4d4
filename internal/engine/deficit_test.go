package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"card/internal/neighborhood"
)

// scanDeficit is the reference the incremental deficit bitset replaced:
// the O(N) table-length scan. The tests below rebuild it after every tick
// and demand bit-equality, so any missed shrink/grow hook fails loudly.
func scanDeficit(e *Engine) []NodeID {
	var out []NodeID
	noc := e.cfg.NoC
	for u := 0; u < e.Nodes(); u++ {
		if e.prot.Table(NodeID(u)).Len() < noc {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// deficitList reads the engine's deficit bitset ascending.
func deficitList(e *Engine) []NodeID {
	var out []NodeID
	for u := 0; u < e.Nodes(); u++ {
		if e.deficit.Contains(u) {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// refRoundList is the round list the old full-scan implementation built:
// one ascending id-order pass appending dirty-accumulated nodes and
// below-NoC tables.
func refRoundList(e *Engine) []NodeID {
	var out []NodeID
	noc := e.cfg.NoC
	for u := 0; u < e.Nodes(); u++ {
		if e.dirtyAcc.Contains(u) || e.prot.Table(NodeID(u)).Len() < noc {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// TestDeficitMatchesTableScan pins the deficit invariant under the full
// mutation surface — mobility-driven rounds, churn expiry, cold
// readmission — at serial and sharded worker settings: after every tick
// the incrementally maintained deficit bitset must equal the table-length
// scan, and the merged round list must equal what the old one-pass scan
// would have produced.
func TestDeficitMatchesTableScan(t *testing.T) {
	cases := []struct {
		name           string
		workers, procs int
	}{
		{"serial-procs1", 1, 1},
		{"workers4-procs4", 4, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			nc := dirtyNet(300)
			nc.ChurnMeanUp, nc.ChurnMeanDown = 20, 5
			cfg := testCfg()
			e := newEngine(t, nc, cfg)
			e.SetMaintainWorkers(c.workers)
			e.SelectContacts()
			for tick := 1; tick <= 8; tick++ {
				e.Advance(cfg.ValidatePeriod)
				got, want := deficitList(e), scanDeficit(e)
				if !slices.Equal(got, want) {
					t.Fatalf("tick %d: deficit bitset %v, table scan %v", tick, got, want)
				}
				if e.dirtyAll {
					continue // next round takes the full path; no list to compare
				}
				if got, want := e.dirtyRoundList(), refRoundList(e); !slices.Equal(got, want) {
					t.Fatalf("tick %d: merged round list %v, full-scan list %v", tick, got, want)
				}
			}
		})
	}
}

// TestDeficitChurnEquivalence is the black-box half: under churn AND
// mobility, the deficit-driven engine must stay bit-identical between the
// serial and sharded paths — round lists (sizes), tables, stats and
// recorder totals. (runDirtyTrace compares tables/stats/msgs/reach; the
// per-round list equality is covered white-box above.)
func TestDeficitChurnEquivalence(t *testing.T) {
	nc := dirtyNet(250)
	nc.ChurnMeanUp, nc.ChurnMeanDown = 15, 5
	base := runDirtyTrace(t, nc, 1, 1)
	got := runDirtyTrace(t, nc, 4, 4)
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
			t.Fatalf("node %d contact table diverges", u)
		}
	}
}

// TestViewCacheEngineEquivalence runs the same churn+mobility trace with
// the view table capped — at one view, below the working set, at exactly N
// and beyond it — in place of the resident one, with views carried across
// refreshes by Retain (dirty rounds) and dropped by the lazy epoch wipe
// (full rounds), serially and sharded: every table, statistic and message
// total must be bit-identical — neighborhood views are pure functions of
// the snapshot, so residency policy must be invisible to results.
func TestViewCacheEngineEquivalence(t *testing.T) {
	const n = 250
	base := map[bool]maintSnapshot{}
	config := func(dirty bool) NetworkConfig {
		nc := dirtyNet(n)
		nc.DirtyMaintenance = dirty
		nc.ChurnMeanUp, nc.ChurnMeanDown = 15, 5
		return nc
	}
	for _, dirty := range []bool{true, false} {
		base[dirty] = runDirtyTrace(t, config(dirty), 1, 1)
	}
	for _, c := range []struct {
		name           string
		workers, procs int
	}{
		{"serial", 1, 1},
		{"workers4-procs4", 4, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, dirty := range []bool{true, false} {
				for _, cap := range []int{1, 70, n, 4 * n} {
					t.Run(fmt.Sprintf("dirty=%v/cap%d", dirty, cap), func(t *testing.T) {
						cached := config(dirty)
						cached.ViewCacheCap = cap
						got, base := runDirtyTrace(t, cached, c.workers, c.procs), base[dirty]
						if got.added != base.added {
							t.Errorf("initial selection added %d contacts, resident added %d", got.added, base.added)
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
								t.Fatalf("node %d contact table diverges", u)
							}
						}
					})
				}
			}
		})
	}
}

// TestOnlyResidentViewsWarm pins how an on-demand provider is recognised
// (by the round fan-outs' Warm and by cardbench alike): a capped engine's
// Neighborhood() is not a Warmer, an uncapped one's is.
func TestOnlyResidentViewsWarm(t *testing.T) {
	nc := testNet(50)
	if _, ok := newEngine(t, nc, testCfg()).Neighborhood().(neighborhood.Warmer); !ok {
		t.Error("the resident view table does not implement Warmer")
	}
	nc.ViewCacheCap = 10
	if _, ok := newEngine(t, nc, testCfg()).Neighborhood().(neighborhood.Warmer); ok {
		t.Error("a capped view table implements Warmer")
	}
}
