package neighborhood

import (
	"reflect"
	"testing"

	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/par"
	"card/internal/topology"
	"card/internal/xrand"
)

// mobileNet builds a random-waypoint network whose refreshes actually move
// edges, so epoch bumps and Retain calls are exercised for real.
func mobileNet(seed uint64, n int) *manet.Network {
	m, err := mobility.NewRandomWaypoint(n, area, mobility.RWPConfig{
		MinSpeed: 5, MaxSpeed: 15, Pause: 0,
	}, xrand.New(seed))
	if err != nil {
		panic(err)
	}
	return manet.NewNetwork(m, manet.Config{Link: topology.LinkModel{Uniform: 100}}, xrand.New(seed+1))
}

// checkProvidersAgree asserts every lookup of the Provider interface is
// bit-identical between the two providers for every (u, x) pair.
func checkProvidersAgree(t *testing.T, a, b Provider, n int) {
	t.Helper()
	for u := NodeID(0); int(u) < n; u++ {
		if got, want := b.Members(u), a.Members(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("Members(%d): %v vs %v", u, got, want)
		}
		if got, want := b.EdgeNodes(u), a.EdgeNodes(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("EdgeNodes(%d): %v vs %v", u, got, want)
		}
		for x := NodeID(0); int(x) < n; x++ {
			if got, want := b.Contains(u, x), a.Contains(u, x); got != want {
				t.Fatalf("Contains(%d,%d): %v vs %v", u, x, got, want)
			}
			if got, want := b.Dist(u, x), a.Dist(u, x); got != want {
				t.Fatalf("Dist(%d,%d): %d vs %d", u, x, got, want)
			}
			if got, want := routeOf(t, b, u, x), routeOf(t, a, u, x); !reflect.DeepEqual(got, want) {
				t.Fatalf("Route(%d,%d): %v vs %v", u, x, got, want)
			}
		}
	}
}

// TestViewCacheMatchesOracle pins the bit-identical-lookups contract: a
// capped table whose capacity forces constant eviction and recompute must
// answer every query exactly like the full-residency one, across
// topology refreshes (epoch wipes) on the same network.
func TestViewCacheMatchesOracle(t *testing.T) {
	const n = 60
	net := mobileNet(7, n)
	o := NewOracle(net, 2)
	// Capacity 1: every miss evicts the previous view.
	c := NewViewCache(net, 2, 1)
	for step := 0; step <= 3; step++ {
		if step > 0 {
			net.RefreshAt(float64(step))
		}
		checkProvidersAgree(t, o, c, n)
	}
}

// TestViewCacheRetain pins the Retain half: after a refresh, retaining
// all-but-changed views (the dirty-engine pattern) must still answer
// bit-identically to a fresh Oracle over the new snapshot — including for
// the retained (not recomputed) entries.
func TestViewCacheRetain(t *testing.T) {
	const n = 40
	net := lineNet(n) // static: empty adjacency diff, so Retain(nil) is sound
	c := NewViewCache(net, 2, n)
	for u := NodeID(0); int(u) < n; u++ {
		c.Members(u) // materialize everything
	}
	net.RefreshAt(1) // epoch bump, no movement
	c.Retain(nil)
	fresh := NewOracle(net, 2)
	checkProvidersAgree(t, fresh, c, n)

	// Dropping a subset must recompute exactly those on demand.
	net.RefreshAt(2)
	c.Retain([]NodeID{3, 17, 17, 31}) // duplicates are harmless
	checkProvidersAgree(t, NewOracle(net, 2), c, n)
}

// residentViews counts the table's non-nil slots.
func residentViews(t *Table) int {
	k := 0
	for i := range t.slots {
		if t.slots[i].Load() != nil {
			k++
		}
	}
	return k
}

// TestViewCacheCapacity pins the residency bound: a serially read table
// never holds more than cap views, however many are touched — including
// after a Retain and refill, which leaves the dropped ids' stale entries
// behind in the ring.
func TestViewCacheCapacity(t *testing.T) {
	const n = 500
	net := randomNet(3, n, 80)
	const cap = 64
	c := NewViewCache(net, 2, cap)
	touchAll := func(when string) {
		for u := NodeID(0); int(u) < n; u++ {
			c.Members(u)
			if got := residentViews(c); got > cap {
				t.Fatalf("%s: %d resident views after touching node %d, cap %d", when, got, u, cap)
			}
		}
	}
	touchAll("first pass")
	if got := residentViews(c); got != cap {
		t.Fatalf("%d resident views after touching all %d, want the cap %d", got, n, cap)
	}
	// The last cap ids are resident; drop every other one of them.
	var drop []NodeID
	for u := NodeID(n - cap); int(u) < n; u += 2 {
		drop = append(drop, u)
	}
	net.RefreshAt(1) // static field: the empty adjacency diff makes any Retain sound
	c.Retain(drop)
	if got, want := residentViews(c), cap-len(drop); got != want {
		t.Fatalf("%d resident views after Retain dropped %d of %d, want %d", got, len(drop), cap, want)
	}
	for _, u := range drop { // refill exactly the dropped views: ids now listed twice
		c.Members(u)
	}
	if got := residentViews(c); got > cap {
		t.Fatalf("%d resident views after the refill, cap %d", got, cap)
	}
	touchAll("after Retain and refill")
}

// TestCappedFaultsConcurrently hammers a table whose cap is far below the
// working set from par workers over several refreshes, half of them
// Retained and half left to the lazy epoch wipe (which the first readers
// then race to perform): every view a lookup returns — including views
// held across their own eviction — must equal a fresh computeView of the
// snapshot it was read on. While workers run, residency is bounded by cap
// plus one in-flight publish per worker; at the join every publish has
// been listed, so the bound is cap itself. CI runs this under -race.
func TestCappedFaultsConcurrently(t *testing.T) {
	const n, r, cap, passes = 300, 2, 8, 4
	net := mobileNet(21, n)
	c := NewViewCache(net, r, cap)
	workers := max(par.Limit(), 4) // interleave on a small box too
	type heldView struct {
		u NodeID
		v *view
	}
	held := make([][]heldView, workers)
	s := c.scratch.Get().(*bfsScratch)
	fresh := func() []*view {
		out := make([]*view, n)
		for u := range out {
			out[u] = computeView(net.Graph(), r, NodeID(u), s)
		}
		return out
	}
	want := fresh()
	for step := 0; step < 8; step++ {
		if step > 0 {
			net.RefreshAt(float64(step))
			old := want
			want = fresh()
			if step%2 == 0 {
				// The exact Retain contract: every node whose ball differs.
				var changed []NodeID
				for u := range want {
					if !reflect.DeepEqual(old[u], want[u]) {
						changed = append(changed, NodeID(u))
					}
				}
				c.Retain(changed)
			}
		}
		for w := range held {
			held[w] = held[w][:0]
		}
		par.WorkersN(workers, passes*n, func(worker, i int) {
			// Different strides per worker: they collide on some slots and
			// evict each other's views on the rest.
			u := NodeID(i * (2*worker + 1) % n)
			held[worker] = append(held[worker], heldView{u, c.view(u)})
		})
		if got := residentViews(c); got > cap {
			t.Fatalf("step %d: %d resident views at the join, cap %d", step, got, cap)
		}
		for w := range held {
			for _, h := range held[w] {
				if !reflect.DeepEqual(h.v, want[h.u]) {
					t.Fatalf("step %d worker %d: view of node %d differs from a fresh computeView", step, w, h.u)
				}
			}
		}
	}
}

// TestViewCacheIsNotAWarmer documents the deliberate contract: warming a
// capped table would reintroduce the per-round O(N) sweep, so Warm must
// skip it — and the engine, workload and cardbench recognise an on-demand
// provider by this assertion failing.
func TestViewCacheIsNotAWarmer(t *testing.T) {
	var p Provider = NewViewCache(lineNet(4), 1, 8)
	if _, ok := p.(Warmer); ok {
		t.Fatal("a capped table implements Warmer; on-demand compute must not be pre-warmed")
	}
}
