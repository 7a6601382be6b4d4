package card

import (
	"runtime"
	"testing"
)

// TestAllocBudgetAdvance1k pins the steady-state allocation cost of one
// engine tick at the 1k scale. The scenario deliberately minimizes real
// protocol work — static nodes, dirty maintenance, GOMAXPROCS 1 — so
// what remains per Advance(period) is the fixed machinery: the (empty-diff)
// topology refresh, the oracle epoch advance and the restricted round over
// the below-NoC stragglers. The flat-slab
// contact tables and the reused maintainer/walk scratch are what keep this
// figure flat; before them, every round paid O(N) table and path churn.
//
// The budget is allocations per tick, not bytes: a steady state that
// allocates proportionally to N (or to NoC·N paths) fails loudly here
// long before it shows up as GC pressure at 100k.
func TestAllocBudgetAdvance1k(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	sim, err := NewSimulation(NetworkConfig{
		Nodes: 1000, Width: 1500, Height: 1500, TxRange: 100,
		DirtyMaintenance: true, Seed: 9,
	}, Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 2, ValidatePeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.SelectContacts()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	period := sim.Config().ValidatePeriod
	// Warm up: let retrying walkers exhaust their fresh randomness churn
	// and every reusable buffer reach its steady capacity.
	for i := 0; i < 5; i++ {
		sim.Advance(period)
	}
	got := testing.AllocsPerRun(20, func() {
		sim.Advance(period)
	})
	// Steady-state ticks on this scenario measure 2 allocations: the
	// refresh's new topology.Graph header and the round's fan-out closure
	// (its per-worker sums live in engine scratch). CSQ and recovery routes
	// are appended into Maintainer scratch, so retrying walkers allocate
	// nothing. That is three orders of magnitude below the ~N·NoC the
	// pre-slab representation paid.
	const budget = 2
	t.Logf("allocs per 1k-node tick: %.1f (budget %d)", got, budget)
	if got > budget {
		t.Errorf("steady-state tick allocates %.1f times, budget %d", got, budget)
	}
}

// TestAllocBudgetQuietAdvance10k pins the quiet-refresh machinery the 1M
// preset leans on: random-waypoint nodes inside their synchronized
// initial dwell, so every tick runs the full lazy stack — StepTo with an
// empty moved list, Builder.Update's empty-diff early-out, the
// deficit∪dirty round list over the stragglers — against reused scratch:
// the expandChanges BFS queue and stamps, the dirtyAcc/deficit/roundSet
// bitsets and the round-list slice all persist across refreshes. A leak
// of any of them (or a fallback onto an O(N) scan allocating per tick)
// breaks the budget at 10k long before the 1M preset feels it.
func TestAllocBudgetQuietAdvance10k(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	sim, err := NewSimulation(NetworkConfig{
		Nodes: 10000, Width: 4200, Height: 4200, TxRange: 100,
		Mobility: RandomWaypoint, MinSpeed: 1, MaxSpeed: 19, Pause: 600,
		DirtyMaintenance: true, Seed: 9,
	}, Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	sim.SelectContacts()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	period := sim.Config().ValidatePeriod
	for i := 0; i < 5; i++ {
		sim.Advance(period)
	}
	got := testing.AllocsPerRun(20, func() {
		sim.Advance(period)
	})
	// Measures 2, like the 1k tick: the stragglers' CSQ routes go into
	// Maintainer scratch too.
	const budget = 2
	t.Logf("allocs per quiet 10k-node tick: %.1f (budget %d)", got, budget)
	if got > budget {
		t.Errorf("quiet steady-state tick allocates %.1f times, budget %d", got, budget)
	}
}

// TestAllocBudgetChurnedRefresh10k pins a churned refresh beside the quiet
// one: 10k static nodes under churn (mean up 200 s, down 20 s, ~25 flips
// per 0.5 s refresh) with dirty maintenance and no round in the window, so
// each tick is the flip queue, the masked topology update, the dirty
// expansion, churn expiry through the owners-of index and readmission.
// The queue, the flip lists, the expiry candidates and the deficit bitset
// are all reused scratch.
func TestAllocBudgetChurnedRefresh10k(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	sim, err := NewSimulation(NetworkConfig{
		Nodes: 10000, Width: 4200, Height: 4200, TxRange: 100,
		ChurnMeanUp: 200, ChurnMeanDown: 20, DirtyMaintenance: true, Seed: 9,
	}, Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, ValidatePeriod: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sim.SelectContacts()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 5; i++ {
		sim.Advance(0.5)
	}
	expired := sim.Stats().ContactsExpired
	got := testing.AllocsPerRun(20, func() {
		sim.Advance(0.5)
	})
	if sim.Stats().ContactsExpired == expired || sim.Rounds() != 0 {
		t.Fatalf("window expired nothing or ran a round (%d rounds)", sim.Rounds())
	}
	// Measures 1: the refresh's new topology.Graph header.
	const budget = 1
	t.Logf("allocs per churned 10k-node refresh: %.1f (budget %d)", got, budget)
	if got > budget {
		t.Errorf("churned refresh allocates %.1f times, budget %d", got, budget)
	}
}
