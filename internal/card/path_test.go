package card

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

// pairwiseShorten is Maintainer.shortenRoute as first written, kept as its
// oracle: for each kept relay x at index i it scans the route downward from
// the end for the first node that is x again or a two-way neighbour of x —
// ~len²/2 adjacency probes per route where the method reads x's neighbour
// list once.
func pairwiseShorten(net *manet.Network, path []NodeID) []NodeID {
	out := path[:0]
	for i := 0; i < len(path); {
		x := path[i]
		next := i + 1
		for j := len(path) - 1; j > next; j-- {
			if path[j] == x || net.Bidirectional(x, path[j]) {
				next = j
				break
			}
		}
		if next == len(path) || path[next] != x { // else a loop: resume at x's last occurrence
			out = append(out, x)
		}
		i = next
	}
	return out
}

// shortener returns a Maintainer over net alone, enough to call
// shortenRoute.
func shortener(net *manet.Network) *Maintainer { return (&Protocol{net: net}).NewMaintainer() }

// compactLoops is the route rewrite shortenRoute replaced, kept as its
// oracle: chronological loop erasure — whenever a node reappears, the detour
// between its two occurrences is cut and the walk continues from the first
// occurrence. It reads no adjacency, so it equals shortenRoute exactly where
// shortenRoute has no chord to take.
func compactLoops(path []NodeID) []NodeID {
	out := path[:0]
	for _, n := range path {
		cut := false
		for j, m := range out {
			if m == n {
				out = out[:j+1]
				cut = true
				break
			}
		}
		if !cut {
			out = append(out, n)
		}
	}
	return out
}

// pathIsSimple reports whether no node appears twice on the route.
func pathIsSimple(path []NodeID) bool {
	for i, n := range path {
		for _, m := range path[i+1:] {
			if m == n {
				return false
			}
		}
	}
	return true
}

// firstChord returns the first pair of route positions i < j-1 whose nodes
// share a two-way link of net's snapshot, or ok=false on a chord-free route.
func firstChord(net *manet.Network, path []NodeID) (i, j int, ok bool) {
	for i := range path {
		for j := i + 2; j < len(path); j++ {
			if net.Bidirectional(path[i], path[j]) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// checkChordFree asserts that no node of the route hears a later node of it
// other than its successor.
func checkChordFree(t *testing.T, net *manet.Network, path []NodeID) {
	t.Helper()
	if i, j, ok := firstChord(net, path); ok {
		t.Fatalf("route %v has the chord %d-%d", path, path[i], path[j])
	}
}

// islandNet is a field of n nodes with no link at all.
func islandNet(t *testing.T, n int) *manet.Network {
	coords := make([][2]float64, n)
	for i := range coords {
		coords[i] = [2]float64{float64(i) * 100, 0}
	}
	return customNet(t, coords)
}

func TestCompactLoops(t *testing.T) {
	cases := []struct {
		in, want []NodeID
	}{
		{nil, nil},
		{[]NodeID{7}, []NodeID{7}},
		{[]NodeID{1, 2, 3}, []NodeID{1, 2, 3}},
		// One revisit: the detour 2-3 is cut.
		{[]NodeID{1, 2, 3, 2, 4}, []NodeID{1, 2, 4}},
		// Walk that returns to the source and leaves again.
		{[]NodeID{1, 2, 1, 3}, []NodeID{1, 3}},
		// Overlapping loops: each revisit cuts back to the surviving
		// occurrence, and 2 (cut with the 2-3-1 detour) may legitimately
		// reappear later.
		{[]NodeID{0, 1, 2, 3, 1, 4, 2, 5}, []NodeID{0, 1, 4, 2, 5}},
		// Path collapsing to its endpoint.
		{[]NodeID{5, 6, 5}, []NodeID{5}},
	}
	islands := shortener(islandNet(t, 8))
	for _, c := range cases {
		if got := islands.shortenRoute(append([]NodeID(nil), c.in...)); !slices.Equal(got, c.want) {
			t.Errorf("shortenRoute(%v) on a link-free field = %v, want %v", c.in, got, c.want)
		}
		in := append([]NodeID(nil), c.in...)
		got := compactLoops(in)
		if len(got) != len(c.want) {
			t.Errorf("compactLoops(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("compactLoops(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestCompactLoopsProperties checks the three guarantees downstream code
// relies on: the result is simple, keeps the endpoints, and uses only hops
// of the input (so hop-validity is preserved).
func TestCompactLoopsProperties(t *testing.T) {
	f := func(seed uint64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := 1 + int(lenRaw%20)
		in := make([]NodeID, n)
		for i := range in {
			in[i] = NodeID(rng.Intn(8)) // small alphabet forces collisions
		}
		hops := map[[2]NodeID]bool{}
		for i := 0; i+1 < len(in); i++ {
			hops[[2]NodeID{in[i], in[i+1]}] = true
		}
		out := compactLoops(append([]NodeID(nil), in...))
		if !pathIsSimple(out) {
			return false
		}
		if out[0] != in[0] || out[len(out)-1] != in[n-1] {
			return false
		}
		for i := 0; i+1 < len(out); i++ {
			if !hops[[2]NodeID{out[i], out[i+1]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestShortenRoute pins the pass on hand-built fields (15 m radio range).
func TestShortenRoute(t *testing.T) {
	// A row 0..5 at 7 m spacing: every node hears the next two.
	row := customNet(t, [][2]float64{{0, 0}, {7, 0}, {14, 0}, {21, 0}, {28, 0}, {35, 0}})
	// A rail 0(0,0) 1(10,0) 2(20,0) 3(30,0) with 4(10,10) above 1 and
	// 5(20,10) above 2; the diagonals 0-4, 1-5, 2-4 and 3-5 are 14.1 m.
	ladder := customNet(t, [][2]float64{{0, 0}, {10, 0}, {20, 0}, {30, 0}, {10, 10}, {20, 10}})
	cases := []struct {
		name     string
		net      *manet.Network
		in, want []NodeID
	}{
		{"empty", row, nil, nil},
		{"single", row, []NodeID{3}, []NodeID{3}},
		{"one hop", row, []NodeID{0, 1}, []NodeID{0, 1}},
		{"every other node of a dense row", row, []NodeID{0, 1, 2, 3, 4, 5}, []NodeID{0, 2, 4, 5}},
		{"already chord-free", row, []NodeID{0, 2, 4, 5}, []NodeID{0, 2, 4, 5}},
		{"meander out and back", row, []NodeID{0, 1, 2, 3, 2, 1, 2, 3, 4}, []NodeID{0, 2, 4}},
		{"loop back to the owner", row, []NodeID{0, 1, 0, 2, 3}, []NodeID{0, 2, 3}},
		{"collapses to its endpoint", row, []NodeID{5, 4, 5}, []NodeID{5}},
		{"immediate repeat", row, []NodeID{4, 4, 5}, []NodeID{4, 5}},
		// 0 hears 1 and 4; 4's last occurrence is the farther listed.
		{"detour over the ladder", ladder, []NodeID{0, 1, 2, 5, 4, 5, 3}, []NodeID{0, 4, 5, 3}},
		{"no chord on the ladder's rail", ladder, []NodeID{0, 1, 2, 3}, []NodeID{0, 1, 2, 3}},
	}
	for _, c := range cases {
		got := shortener(c.net).shortenRoute(append([]NodeID(nil), c.in...))
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: shortenRoute(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
}

// TestShortenRouteSkipsOneWayChord: on a directed world a chord heard in one
// direction only is not a hop a reply or a validation could travel.
func TestShortenRouteSkipsOneWayChord(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}}
	area := geom.Rect{W: 100, H: 100}
	build := func(lm topology.LinkModel) *manet.Network {
		return manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: lm}, xrand.New(1))
	}
	// Node 0 shouts 30 m, the others 12 m: 0→2 exists, 2→0 does not.
	oneWay := build(topology.LinkModel{Uniform: 12, Ranges: []float64{30, 12, 12}})
	if !oneWay.Adjacent(0, 2) || oneWay.Adjacent(2, 0) {
		t.Fatal("field does not have the one-way link 0→2")
	}
	if got, want := shortener(oneWay).shortenRoute([]NodeID{0, 1, 2}), []NodeID{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("one-way chord taken: %v, want %v", got, want)
	}
	twoWay := build(topology.LinkModel{Uniform: 12, Ranges: []float64{30, 12, 30}})
	if got, want := shortener(twoWay).shortenRoute([]NodeID{0, 1, 2}), []NodeID{0, 2}; !slices.Equal(got, want) {
		t.Errorf("two-way chord on a directed world not taken: %v, want %v", got, want)
	}
}

// TestShortenRouteProperties checks what the maintainer relies on, over
// random walks (hop-valid, full of loops and chords) and random node
// sequences (neither) on scalar and directed fields: the endpoints survive;
// the output is simple, chord-free and a fixed point of the pass; it is
// hop-valid whenever the input was; and an input with nothing to cut — a
// chord-free simple route, or any route on a field without links — comes
// out as compactLoops leaves it.
func TestShortenRouteProperties(t *testing.T) {
	islands := shortener(islandNet(t, 8))
	nets := []*manet.Network{staticNet(71, 200, 60), directedNet(72, 200, 70)}
	ms := []*Maintainer{shortener(nets[0]), shortener(nets[1])}
	var walks, cut, untouched int
	f := func(seed uint64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		n := 1 + int(lenRaw%24)
		net, m := nets[seed%2], ms[seed%2]

		// On the link-free field only loops can go: the old pass exactly.
		seq := make([]NodeID, n)
		for i := range seq {
			seq[i] = NodeID(rng.Intn(8)) // small alphabet forces collisions
		}
		want := compactLoops(append([]NodeID(nil), seq...))
		if got := islands.shortenRoute(append([]NodeID(nil), seq...)); !slices.Equal(got, want) {
			t.Logf("link-free: shortenRoute(%v) = %v, compactLoops = %v", seq, got, want)
			return false
		}

		// A random walk over two-way links, free to turn back.
		in := []NodeID{NodeID(rng.Intn(net.N()))}
		for len(in) < n {
			x := in[len(in)-1]
			var nbrs []NodeID
			for _, y := range net.Neighbors(x) {
				if net.Bidirectional(x, y) {
					nbrs = append(nbrs, y)
				}
			}
			if len(nbrs) == 0 {
				break
			}
			in = append(in, nbrs[rng.Intn(len(nbrs))])
		}
		if seed%3 == 0 { // and one that is not hop-valid at all
			for i := range in {
				in[i] = NodeID(rng.Intn(20))
			}
		}
		hopValid := true
		for i := 0; i+1 < len(in); i++ {
			hopValid = hopValid && net.Bidirectional(in[i], in[i+1])
		}
		out := m.shortenRoute(append([]NodeID(nil), in...))
		if out[0] != in[0] || out[len(out)-1] != in[len(in)-1] || !pathIsSimple(out) {
			t.Logf("shortenRoute(%v) = %v: endpoints or simplicity", in, out)
			return false
		}
		if i, j, ok := firstChord(net, out); ok {
			t.Logf("shortenRoute(%v) = %v keeps the chord %d-%d", in, out, out[i], out[j])
			return false
		}
		for i := 0; hopValid && i+1 < len(out); i++ {
			if !net.Bidirectional(out[i], out[i+1]) {
				t.Logf("shortenRoute(%v) = %v: hop %d-%d is no two-way link", in, out, out[i], out[i+1])
				return false
			}
		}
		if again := m.shortenRoute(append([]NodeID(nil), out...)); !slices.Equal(again, out) {
			t.Logf("not idempotent: %v -> %v -> %v", in, out, again)
			return false
		}
		if _, _, chord := firstChord(net, in); !chord && pathIsSimple(in) {
			untouched++
			if !slices.Equal(out, compactLoops(append([]NodeID(nil), in...))) {
				t.Logf("chord-free simple input %v rewritten to %v", in, out)
				return false
			}
		}
		walks++
		if len(out) < len(in) {
			cut++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if cut < walks/2 || untouched < 20 {
		t.Errorf("%d routes, %d shortened, %d chord-free inputs: property not exercised", walks, cut, untouched)
	}
}

// randomWalk is a walk of up to n nodes over net's links from a random
// start, free to turn back and — on a directed field — to take one-way hops,
// so it carries loops, repeated nodes and chords of both kinds.
func randomWalk(rng *xrand.Rand, net *manet.Network, n int) []NodeID {
	walk := []NodeID{NodeID(rng.Intn(net.N()))}
	for len(walk) < n {
		nbrs := net.Neighbors(walk[len(walk)-1])
		if len(nbrs) == 0 {
			break
		}
		walk = append(walk, nbrs[rng.Intn(len(nbrs))])
	}
	return walk
}

// TestShortenMatchesReference: the position-stamp pass cuts every route
// exactly as the pairwise scan does, on a scalar and a range-spread
// directed field, over random walks and over short sequences of a few
// close nodes (dense in repeats). One Maintainer serves every call, as in
// a round, and every seventh call first winds the stamp generation to its
// maximum, so the pass wraps it with the previous route's stamps still in
// the array.
func TestShortenMatchesReference(t *testing.T) {
	nets := []*manet.Network{staticNet(81, 300, 60), directedNet(82, 300, 70)}
	ms := []*Maintainer{shortener(nets[0]), shortener(nets[1])}
	var calls, wraps, cut int
	f := func(seed uint64, lenRaw uint8) bool {
		rng := xrand.New(seed)
		net, m := nets[seed%2], ms[seed%2]
		in := randomWalk(rng, net, 1+int(lenRaw%40))
		if seed%5 == 0 { // a few nodes and their neighbours, in any order
			pool := append([]NodeID{in[0]}, net.Neighbors(in[0])...)
			for i := range in {
				in[i] = pool[rng.Intn(len(pool))]
			}
		}
		if calls++; calls%7 == 0 {
			m.routeGen = math.MaxUint32
			wraps++
		}
		want := pairwiseShorten(net, append([]NodeID(nil), in...))
		got := m.shortenRoute(append([]NodeID(nil), in...))
		if !slices.Equal(got, want) {
			t.Logf("directed=%v: shortenRoute(%v) = %v, pairwise = %v", net.Directed(), in, got, want)
			return false
		}
		if len(got) < len(in) {
			cut++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	if wraps == 0 || cut < calls/2 {
		t.Errorf("%d routes, %d shortened, %d generation wraps: not exercised", calls, cut, wraps)
	}
}

// TestPathHygieneUnderMobility is the stored-path property test: across a
// mobile run with all three methods, every contact path — as selected and
// as re-validated/re-spliced by maintenance — is a simple source route
// that is hop-adjacent under the snapshot its round validated against.
func TestPathHygieneUnderMobility(t *testing.T) {
	for _, method := range []Method{EM, PM1, PM2} {
		method := method
		t.Run(method.String(), func(t *testing.T) {
			net := mobileNet(t, 50+uint64(method), 250, 50)
			cfg := Config{R: 3, MaxContactDist: 16, NoC: 5, Method: method, ValidatePeriod: 1}
			p := newProtocol(t, net, cfg, 60+uint64(method))
			selectAll(p, 0)
			check := func(tm float64) {
				for u := 0; u < net.N(); u++ {
					for _, c := range p.Table(NodeID(u)).Contacts() {
						if !pathIsSimple(c.Path) {
							t.Fatalf("t=%v node %d: stored path self-intersects: %v", tm, u, c.Path)
						}
						checkPathValid(t, net, c.Path)
						if c.Path[0] != NodeID(u) || c.Path[len(c.Path)-1] != c.ID {
							t.Fatalf("t=%v node %d: bad endpoints %v", tm, u, c.Path)
						}
					}
				}
			}
			check(0)
			for step := 1; step <= 8; step++ {
				tm := float64(step)
				net.RefreshAt(tm)
				p.MaintainAll(tm)
				check(tm)
			}
			if p.Stats().Recoveries == 0 {
				t.Error("mobility triggered no recoveries; property not exercised")
			}
		})
	}
}
