package neighborhood

import (
	"fmt"
	"testing"

	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

// coverWorld is one kind of snapshot the cover identity must hold on.
type coverWorld struct {
	name  string
	build func(seed uint64, n int) *manet.Network
}

var coverWorlds = []coverWorld{
	{"undirected", func(seed uint64, n int) *manet.Network {
		return randomNet(seed, n, 70)
	}},
	{"directed", func(seed uint64, n int) *manet.Network {
		// Range spread ±50 %: u→v without v→u wherever the radios differ.
		rng := xrand.New(seed)
		pts := topology.UniformPositions(n, area, rng)
		ranges := make([]float64, n)
		for i := range ranges {
			ranges[i] = 70 * (1 + 0.5*rng.Range(-1, 1))
		}
		return manet.NewNetwork(mobility.NewStatic(pts, area),
			manet.Config{Link: topology.LinkModel{Uniform: 70, Ranges: ranges}}, xrand.New(seed+1))
	}},
	{"churn-masked", func(seed uint64, n int) *manet.Network {
		rng := xrand.New(seed)
		pts := topology.UniformPositions(n, area, rng)
		churn, err := manet.NewChurn(n, manet.ChurnConfig{MeanUp: 4, MeanDown: 2}, rng)
		if err != nil {
			panic(err)
		}
		net := manet.NewNetwork(mobility.NewStatic(pts, area),
			manet.Config{Link: topology.LinkModel{Uniform: 70}, Churn: churn}, xrand.New(seed+1))
		net.RefreshAt(5) // about a third of the nodes are down by now
		if net.UpCount() == n {
			panic("churn world has every node up")
		}
		return net
	}},
	{"barrier-partitioned", func(seed uint64, n int) *manet.Network {
		rng := xrand.New(seed)
		pts := topology.UniformPositions(n, area, rng)
		net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{
			Link:      topology.LinkModel{Uniform: 70},
			Partition: manet.PartitionConfig{Period: 10, Duration: 4},
		}, xrand.New(seed+1))
		whole := net.Graph().Links()
		net.RefreshAt(8) // inside the cut window [6, 10)
		if net.Graph().Links() >= whole {
			panic("barrier world is not partitioned")
		}
		return net
	}},
}

// naiveCover is the edge cover by definition: the literal union of member
// lists.
func naiveCover(p Provider, u NodeID, n int) []bool {
	in := make([]bool, n)
	for _, x := range p.Members(u) {
		in[x] = true
	}
	for _, e := range p.EdgeNodes(u) {
		for _, x := range p.Members(e) {
			in[x] = true
		}
	}
	return in
}

// checkCover asserts p.StampCover stamps exactly want for every node, and
// leaves every other entry of the caller's array alone — including when
// the array already carries the generation being stamped.
func checkCover(t *testing.T, name string, p Provider, n int, want func(u NodeID) []bool) {
	t.Helper()
	stamp := make([]uint64, n)
	for u := NodeID(0); int(u) < n; u++ {
		gen := uint64(u)*2 + 2
		for i := range stamp {
			stamp[i] = gen - 1
		}
		in := want(u)
		p.StampCover(u, stamp, gen)
		for x := range stamp {
			if got := stamp[x] == gen; got != in[x] {
				t.Fatalf("%s: StampCover(%d) stamped[%d] = %v, naive union says %v", name, u, x, got, in[x])
			}
			if !in[x] && stamp[x] != gen-1 {
				t.Fatalf("%s: StampCover(%d) overwrote stamp[%d] outside the cover", name, u, x)
			}
		}
		// A second call over its own marks is a no-op, not a short BFS.
		p.StampCover(u, stamp, gen)
		for x := range stamp {
			if (stamp[x] == gen) != in[x] {
				t.Fatalf("%s: StampCover(%d) over a pre-stamped array changed entry %d", name, u, x)
			}
		}
	}
}

// coverCaps are the residency bounds the capped body is checked at: one
// that evicts on every miss, the metro-rwp-1m ratio, exactly the working
// set, and one the ring never fills.
func coverCaps(n int) []int { return []int{1, n / 4, n, 4 * n} }

// TestStampCoverMatchesMemberUnion pins the identity the selection path
// rests on: both StampCover bodies equal the naive Members union — the
// resident table's own union, and the capped table's 2R-bounded BFS that
// reads no view, at every residency bound.
func TestStampCoverMatchesMemberUnion(t *testing.T) {
	for _, w := range coverWorlds {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, r := range []int{1, 2, 3} {
				n := 90 + 30*int(seed)
				net := w.build(seed, n)
				o := NewOracle(net, r)
				ref := func(u NodeID) []bool { return naiveCover(o, u, n) }
				checkCover(t, w.name+"/oracle", o, n, ref)
				for _, c := range coverCaps(n) {
					checkCover(t, fmt.Sprintf("%s/viewcache-%d", w.name, c), NewViewCache(net, r, c), n, ref)
				}
			}
		}
	}
}

// TestStampCoverAcrossRefreshes drives the cover over a moving network:
// the capped form reads the live graph, never a cached view, so it must
// track every epoch with or without Retain.
func TestStampCoverAcrossRefreshes(t *testing.T) {
	const n = 80
	net := mobileNet(11, n)
	o := NewOracle(net, 2)
	var caches []*Table
	for _, c := range coverCaps(n) {
		caches = append(caches, NewViewCache(net, 2, c))
	}
	for step := 0; step <= 4; step++ {
		if step > 0 {
			net.RefreshAt(float64(step))
		}
		ref := func(u NodeID) []bool { return naiveCover(o, u, n) }
		checkCover(t, "mobile/oracle", o, n, ref)
		for _, c := range caches {
			checkCover(t, fmt.Sprintf("mobile/viewcache-%d", c.cap), c, n, ref)
		}
	}
}

// TestStampWatchersMatchesContains pins the in-ball identity the query
// path rests on: for every target set S — one node, two, eight, with a
// repeated member and (where the world has one) a churned-down member —
// StampWatchers marks exactly the nodes u with Contains(u, x) for some x
// in S, gives each the smallest Dist(u, x) and the lowest-id x attaining
// it, and touches no other entry of any array — on the resident table and
// at every residency bound, over every kind of snapshot.
func TestStampWatchersMatchesContains(t *testing.T) {
	for _, w := range coverWorlds {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, r := range []int{1, 2, 3} {
				n := 90 + 30*int(seed)
				net := w.build(seed, n)
				ref := NewOracle(net, r) // Contains/Dist come from its views
				checkWatchers(t, w.name+"/oracle", NewOracle(net, r), ref, net)
				for _, c := range []int{1, n / 4, n} {
					checkWatchers(t, fmt.Sprintf("%s/viewcache-%d", w.name, c), NewViewCache(net, r, c), ref, net)
				}
			}
		}
	}
}

// watcherSets lists the target sets checkWatchers runs: every singleton,
// then random sets of two and eight, each with its first member repeated
// at the end and its second replaced by a down node when there is one.
func watcherSets(net *manet.Network) [][]NodeID {
	n := net.N()
	down := NodeID(-1)
	var sets [][]NodeID
	for x := NodeID(0); int(x) < n; x++ {
		sets = append(sets, []NodeID{x})
		if down < 0 && net.Down(x) {
			down = x
		}
	}
	rng := xrand.New(uint64(n))
	for _, size := range []int{2, 8} {
		for k := 0; k < n/3; k++ {
			set := make([]NodeID, size, size+1)
			for i := range set {
				set[i] = NodeID(rng.Intn(n))
			}
			if down >= 0 {
				set[1] = down
			}
			sets = append(sets, append(set, set[0]))
		}
	}
	return sets
}

func checkWatchers(t *testing.T, name string, p, ref Provider, net *manet.Network) {
	t.Helper()
	const untouched = 0xEE
	n := net.N()
	stamp := make([]uint64, n)
	dist := make([]uint8, n)
	origin := make([]NodeID, n)
	var queue []NodeID
	for k, set := range watcherSets(net) {
		gen := uint64(k) + 2 // fresh per call, as the contract requires
		for i := range dist {
			stamp[i], dist[i], origin[i] = gen-1, untouched, untouched
		}
		queue = p.StampWatchers(queue, set, stamp, dist, origin, gen)
		for u := NodeID(0); int(u) < n; u++ {
			want, from := -1, NodeID(-1)
			for _, x := range set {
				d := ref.Dist(u, x)
				if (d >= 0) != ref.Contains(u, x) {
					t.Fatalf("%s: reference Dist(%d, %d) = %d disagrees with Contains", name, u, x, d)
				}
				if d >= 0 && (want < 0 || d < want || (d == want && x < from)) {
					want, from = d, x
				}
			}
			switch got := stamp[u] == gen; {
			case got != (want >= 0):
				t.Fatalf("%s: StampWatchers(%v) stamped[%d] = %v, Contains says %v", name, set, u, got, want >= 0)
			case got && (int(dist[u]) != want || origin[u] != from):
				t.Fatalf("%s: StampWatchers(%v) gives %d holder %d at %d hops, the views say %d at %d",
					name, set, u, origin[u], dist[u], from, want)
			case !got && (stamp[u] != gen-1 || dist[u] != untouched || origin[u] != untouched):
				t.Fatalf("%s: StampWatchers(%v) wrote entry %d outside the union of balls", name, set, u)
			}
		}
	}
}
