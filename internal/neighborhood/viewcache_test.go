package neighborhood

import (
	"reflect"
	"testing"

	"card/internal/manet"
	"card/internal/mobility"
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
// ViewCache whose capacity forces constant eviction and recompute must
// answer every query exactly like a full-residency Oracle, across
// topology refreshes (epoch wipes) on the same network.
func TestViewCacheMatchesOracle(t *testing.T) {
	const n = 60
	net := mobileNet(7, n)
	o := NewOracle(net, 2)
	// Capacity 1 per stripe: nearly every lookup evicts something.
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

// TestViewCacheCapacity pins the residency bound: the cache never holds
// more than its per-stripe caps allow, however many views are touched.
func TestViewCacheCapacity(t *testing.T) {
	const n = 500
	net := randomNet(3, n, 80)
	const cap = 64 // one entry per stripe
	c := NewViewCache(net, 2, cap)
	for u := NodeID(0); int(u) < n; u++ {
		c.Members(u)
	}
	resident := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		if len(s.entries) > s.cap {
			t.Fatalf("stripe %d holds %d entries, cap %d", i, len(s.entries), s.cap)
		}
		resident += len(s.entries)
	}
	if resident > cap {
		t.Fatalf("%d resident views, cap %d", resident, cap)
	}
}

// TestViewCacheIsNotAWarmer documents the deliberate contract: warming a
// capped cache would reintroduce the per-round O(N) sweep, so the engine's
// warm hook must skip it.
func TestViewCacheIsNotAWarmer(t *testing.T) {
	var p Provider = NewViewCache(lineNet(4), 1, 8)
	if _, ok := p.(Warmer); ok {
		t.Fatal("ViewCache implements Warmer; on-demand compute must not be pre-warmed")
	}
}
