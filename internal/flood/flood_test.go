package flood

import (
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/topology"
	"card/internal/xrand"
)

var area = geom.Rect{W: 710, H: 710}

func lineNet(n int) *manet.Network {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	a := geom.Rect{W: float64(n) * 10, H: 10}
	return manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
}

func randomNet(seed uint64, n int) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, area, rng)
	return manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 50}}, xrand.New(seed))
}

// unbounded is the plain-flooding schedule.
var unbounded = []int{-1}

// search scans from src on net's snapshot and runs Search on the
// network's recorder.
func search(net *manet.Network, src, target NodeID, ttls []int, countReply bool) Result {
	var scan topology.BFSResult
	scan.Run(net.Graph(), src, -1)
	return Search(net.Recorder(), &scan, target, ttls, countReply)
}

// The reference primitives: one bounded BFS per TTL ring, straight from
// the flooding model. Search must charge and report exactly what they do.

func refQuery(net *manet.Network, rec *manet.Counters, src, target NodeID, ttl int, countReply bool) Result {
	bfs := net.Graph().BoundedBFS(src, ttl)
	found := target != topology.None && bfs.Dist[target] >= 0
	var relays int64
	for _, v := range bfs.Visited {
		if found && v == target {
			continue // the target answers; it does not relay
		}
		if ttl >= 0 && int(bfs.Dist[v]) >= ttl {
			continue // leaf of the bounded flood: receives, does not relay
		}
		relays++
	}
	rec.Record(manet.CatQuery, relays)
	res := Result{Found: found, Messages: relays, PathHops: -1}
	if found {
		res.PathHops = int(bfs.Dist[target])
		if countReply {
			rec.Record(manet.CatReply, int64(res.PathHops))
			res.Messages += int64(res.PathHops)
		}
	}
	return res
}

func refExpandingRing(net *manet.Network, rec *manet.Counters, src, target NodeID, ttls []int, countReply bool) Result {
	r := Result{PathHops: -1}
	var total int64
	for _, ttl := range ttls {
		r = refQuery(net, rec, src, target, ttl, countReply)
		total += r.Messages
		if r.Found {
			break
		}
	}
	r.Messages = total
	return r
}

func refFlood(net *manet.Network, rec *manet.Counters, src NodeID) Result {
	return refQuery(net, rec, src, topology.None, -1, false)
}

func refRingSweep(net *manet.Network, rec *manet.Counters, src NodeID, ttls []int) Result {
	return refExpandingRing(net, rec, src, topology.None, ttls, false)
}

func TestFloodFindsTargetOnLine(t *testing.T) {
	net := lineNet(10)
	res := search(net, 0, 9, unbounded, true)
	if !res.Found {
		t.Fatal("flood did not find a connected target")
	}
	if res.PathHops != 9 {
		t.Errorf("PathHops = %d, want 9", res.PathHops)
	}
	// Transmissions: nodes 0..8 rebroadcast (target 9 answers) = 9, plus
	// 9 reply hops = 18.
	if res.Messages != 18 {
		t.Errorf("Messages = %d, want 18", res.Messages)
	}
}

func TestFloodWithoutReplyCounting(t *testing.T) {
	net := lineNet(10)
	res := search(net, 0, 9, unbounded, false)
	if res.Messages != 9 {
		t.Errorf("Messages = %d, want 9 (no reply)", res.Messages)
	}
}

func TestFloodUnreachableTarget(t *testing.T) {
	// Two disconnected pairs.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 500, Y: 0}, {X: 510, Y: 0}}
	a := geom.Rect{W: 600, H: 10}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	res := search(net, 0, 3, unbounded, true)
	if res.Found {
		t.Fatal("found target in another component")
	}
	if res.PathHops != -1 {
		t.Errorf("PathHops = %d, want -1", res.PathHops)
	}
	// Both nodes of src's component transmit.
	if res.Messages != 2 {
		t.Errorf("Messages = %d, want 2", res.Messages)
	}
}

func TestFloodCostScalesWithComponent(t *testing.T) {
	// Flooding traffic ~ component size: the paper's core scalability
	// complaint about flooding.
	small := randomNet(5, 250)
	large := randomNet(5, 1000)
	rs := search(small, 0, 1, unbounded, false)
	rl := search(large, 0, 1, unbounded, false)
	if rl.Messages <= rs.Messages {
		t.Errorf("flood cost did not scale: N=250 -> %d, N=1000 -> %d", rs.Messages, rl.Messages)
	}
}

func TestQueryTTLBounds(t *testing.T) {
	net := lineNet(20)
	res := search(net, 0, 15, []int{5}, true)
	if res.Found {
		t.Fatal("TTL-5 flood found a 15-hop target")
	}
	// Nodes 0..4 rebroadcast; node 5 (at TTL) receives but does not relay.
	if res.Messages != 5 {
		t.Errorf("Messages = %d, want 5", res.Messages)
	}
	res2 := search(net, 0, 4, []int{5}, false)
	if !res2.Found || res2.PathHops != 4 {
		t.Errorf("TTL-5 flood missed a 4-hop target: %+v", res2)
	}
}

func TestExpandingRingCheaperForNearTargets(t *testing.T) {
	netA := lineNet(60)
	ring := search(netA, 0, 3, DoublingTTLs(64), false)
	netB := lineNet(60)
	full := search(netB, 0, 3, unbounded, false)
	if !ring.Found || !full.Found {
		t.Fatal("both searches should find the target")
	}
	if ring.Messages >= full.Messages {
		t.Errorf("expanding ring (%d msgs) not cheaper than full flood (%d) for a near target",
			ring.Messages, full.Messages)
	}
}

func TestExpandingRingFindsFarTargets(t *testing.T) {
	net := lineNet(40)
	res := search(net, 0, 39, DoublingTTLs(64), false)
	if !res.Found {
		t.Fatal("expanding ring never found far target")
	}
	if res.PathHops != 39 {
		t.Errorf("PathHops = %d, want 39", res.PathHops)
	}
}

func TestExpandingRingUnreachable(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 500, Y: 0}}
	a := geom.Rect{W: 600, H: 10}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	res := search(net, 0, 1, DoublingTTLs(8), false)
	if res.Found {
		t.Fatal("found unreachable target")
	}
}

func TestDoublingTTLs(t *testing.T) {
	got := DoublingTTLs(10)
	want := []int{1, 2, 4, 8, -1}
	if len(got) != len(want) {
		t.Fatalf("DoublingTTLs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DoublingTTLs = %v, want %v", got, want)
		}
	}
}

func TestFloodSelfQuery(t *testing.T) {
	net := lineNet(5)
	res := search(net, 2, 2, unbounded, true)
	if !res.Found || res.PathHops != 0 {
		t.Errorf("self query = %+v", res)
	}
}

// TestFloodChargesComponent pins the dead search: a target-less flood
// costs exactly one broadcast per node of src's component.
func TestFloodChargesComponent(t *testing.T) {
	net := lineNet(10)
	r := search(net, 4, topology.None, unbounded, false)
	if r.Found || r.PathHops != -1 {
		t.Errorf("target-less flood reported a find: %+v", r)
	}
	if r.Messages != 10 {
		t.Errorf("flood cost %d messages, want 10 (component size)", r.Messages)
	}
	if got := net.Totals().Get(manet.CatQuery); got != 10 {
		t.Errorf("recorder saw %d query transmissions, want 10", got)
	}
}

// TestRingSweepMatchesDeadExpandingRing pins that the target-less sweep
// charges exactly what an escalation toward an unreachable destination
// charges: a dead search's cost never depends on which absent node is
// named.
func TestRingSweepMatchesDeadExpandingRing(t *testing.T) {
	// Two components: a 6-node line and one far node (id 6, unreachable).
	pts := make([]geom.Point, 6)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * 10, Y: 0}
	}
	pts = append(pts, geom.Point{X: 500, Y: 500})
	a := geom.Rect{W: 600, H: 600}
	build := func() *manet.Network {
		return manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	}
	ttls := DoublingTTLs(8)
	ref := search(build(), 0, 6, ttls, false)
	got := search(build(), 0, topology.None, ttls, false)
	if got.Found || got.PathHops != -1 {
		t.Errorf("sweep reported a find: %+v", got)
	}
	if got.Messages != ref.Messages {
		t.Errorf("sweep cost %d != dead escalation cost %d", got.Messages, ref.Messages)
	}
	// The sweep must cost more than one plain flood: every failed ring is
	// charged before the final unbounded one.
	if full := search(build(), 0, topology.None, unbounded, false); got.Messages <= full.Messages {
		t.Errorf("sweep (%d) not above one component flood (%d)", got.Messages, full.Messages)
	}
}

// TestSearchMatchesReference is the equivalence property behind Search:
// on random scalar and range-spread directed fields, every schedule read
// off one reused unbounded scan reports the Result and charges the
// per-category totals of the one-BFS-per-ring reference, for the dead
// target, the source itself, an unreachable node, nodes exactly on a ring
// edge and beyond the last bounded ring, TTL 0, and reply counting on and
// off.
func TestSearchMatchesReference(t *testing.T) {
	schedules := [][]int{unbounded, {0}, {0, -1}, {3}, {1, 2}, DoublingTTLs(8), DoublingTTLs(64)}
	var dead, self, unreachable, onEdge, beyond int
	var scan topology.BFSResult
	for seed := uint64(1); seed <= 12; seed++ {
		for _, directed := range []bool{false, true} {
			rng := xrand.New(seed)
			n := 40 + rng.Intn(100)
			a := geom.Rect{W: 300, H: 300}
			lm := topology.LinkModel{Uniform: 45}
			if directed {
				lm.Ranges = make([]float64, n)
				for i := range lm.Ranges {
					lm.Ranges[i] = rng.Range(25, 65)
				}
			}
			net := manet.NewNetwork(mobility.NewStatic(topology.UniformPositions(n, a, rng), a), manet.Config{Link: lm}, rng.Derive(1))
			for q := 0; q < 6; q++ {
				src := NodeID(rng.Intn(n))
				scan.Run(net.Graph(), src, -1)
				last := scan.Visited[len(scan.Visited)-1]
				targets := []NodeID{topology.None, src, last, NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
				for v := NodeID(0); int(v) < n; v++ {
					if d := scan.Dist[v]; d < 0 || d == 2 || d == 4 {
						targets = append(targets, v)
					}
				}
				for _, target := range targets {
					for _, ttls := range schedules {
						for _, countReply := range []bool{false, true} {
							var wantRec, gotRec manet.Counters
							var want Result
							switch {
							case target != topology.None:
								want = refExpandingRing(net, &wantRec, src, target, ttls, countReply)
							case len(ttls) == 1 && ttls[0] < 0:
								want = refFlood(net, &wantRec, src)
							default:
								want = refRingSweep(net, &wantRec, src, ttls)
							}
							got := Search(&gotRec, &scan, target, ttls, countReply)
							if got != want || gotRec != wantRec {
								t.Fatalf("seed %d directed %v src %d target %d ttls %v reply %v: Search %+v %v, reference %+v %v",
									seed, directed, src, target, ttls, countReply, got, gotRec, want, wantRec)
							}
						}
					}
					switch {
					case target == topology.None:
						dead++
					case target == src:
						self++
					case scan.Dist[target] < 0:
						unreachable++
					case scan.Dist[target] == 2 || scan.Dist[target] == 4:
						onEdge++
					case scan.Dist[target] > 4:
						beyond++
					}
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		hits int
	}{{"dead", dead}, {"self", self}, {"unreachable", unreachable}, {"ring edge", onEdge}, {"beyond", beyond}} {
		if c.hits == 0 {
			t.Errorf("no %s target drawn; the case went untested", c.name)
		}
	}
}
