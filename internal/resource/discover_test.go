// The anycast discovery contract, run against scheme workers: what every
// scheme answers without traffic, which holder answers, and what a dead
// search costs. The file lives beside the Directory it exercises (and keeps
// its long-standing test names) but is an external test package, because
// the discovery rules themselves live in internal/scheme.
package resource_test

import (
	"testing"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/topology"
	"card/internal/xrand"
)

type (
	NodeID = resource.NodeID
	ID     = resource.ID
	Result = resource.Result
)

var NewDirectory = resource.NewDirectory

var area = geom.Rect{W: 710, H: 710}

func testNet(seed uint64, n int) *manet.Network {
	rng := xrand.New(seed)
	pts := topology.UniformPositions(n, area, rng)
	return manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 50}}, xrand.New(seed))
}

func testProtocol(t *testing.T, net *manet.Network) *card.Protocol {
	t.Helper()
	cfg := card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2}
	nb := neighborhood.NewOracle(net, cfg.R)
	p, err := card.New(net, nb, cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMaintainer()
	round := p.NextRound()
	for u := 0; u < net.N(); u++ {
		m.SelectNode(card.NodeID(u), 0, round)
	}
	m.Flush()
	return p
}

// worker builds the named scheme over (net, prot, d) and returns one of
// its workers (prot may be nil for the flooding schemes).
func worker(t *testing.T, name string, net *manet.Network, prot *card.Protocol, d *resource.Directory) scheme.Worker {
	t.Helper()
	s, err := scheme.New(name, scheme.Env{Net: net, Prot: prot, Dir: d})
	if err != nil {
		t.Fatal(err)
	}
	s.Setup()
	return s.Worker()
}

// discover runs one discovery through a fresh worker of the named scheme
// and returns the result with the recorder delta the worker flushed.
func discover(t *testing.T, name string, net *manet.Network, prot *card.Protocol, d *resource.Directory, src NodeID, id ID) (Result, manet.Counters) {
	t.Helper()
	w := worker(t, name, net, prot, d)
	before := net.Totals()
	r := w.Discover(src, id)
	w.Flush()
	return r, net.Totals().DiffSince(before)
}

func discoverCARD(t *testing.T, p *card.Protocol, d *resource.Directory, src NodeID, id ID) Result {
	t.Helper()
	r, _ := discover(t, "card", p.Network(), p, d, src, id)
	return r
}

func discoverFlood(t *testing.T, net *manet.Network, d *resource.Directory, src NodeID, id ID) Result {
	t.Helper()
	r, _ := discover(t, "flood", net, nil, d, src, id)
	return r
}

func discoverRing(t *testing.T, net *manet.Network, d *resource.Directory, src NodeID, id ID) Result {
	t.Helper()
	r, _ := discover(t, "ring", net, nil, d, src, id)
	return r
}

func TestDiscoverUnknownResource(t *testing.T) {
	net := testNet(1, 100)
	p := testProtocol(t, net)
	d := NewDirectory(100)
	if r := discoverCARD(t, p, d, 0, 99); r.Found || r.PathHops != -1 {
		t.Errorf("unknown resource found: %+v", r)
	}
	if r := discoverFlood(t, net, d, 0, 99); r.Found {
		t.Errorf("flood found unknown resource: %+v", r)
	}
}

func TestDiscoverSelfHolder(t *testing.T) {
	net := testNet(2, 100)
	p := testProtocol(t, net)
	d := NewDirectory(100)
	d.Place(1, 5)
	r := discoverCARD(t, p, d, 5, 1)
	if !r.Found || r.Holder != 5 || r.PathHops != 0 || r.Messages != 0 {
		t.Errorf("self-holder = %+v", r)
	}
}

func TestDiscoverNeighborhoodHolderIsFree(t *testing.T) {
	net := testNet(3, 200)
	p := testProtocol(t, net)
	nb := p.Neighborhood()
	src := NodeID(0)
	members := nb.Members(src)
	if len(members) < 2 {
		t.Skip("isolated source")
	}
	holder := members[len(members)-1]
	d := NewDirectory(200)
	d.Place(7, holder)
	r := discoverCARD(t, p, d, src, 7)
	if !r.Found || r.Messages != 0 {
		t.Errorf("neighborhood discovery = %+v, want free hit", r)
	}
	if r.PathHops != nb.Dist(src, holder) {
		t.Errorf("PathHops = %d, want %d", r.PathHops, nb.Dist(src, holder))
	}
}

func TestDiscoverPicksNearestNeighborhoodHolder(t *testing.T) {
	net := testNet(4, 200)
	p := testProtocol(t, net)
	nb := p.Neighborhood()
	src := NodeID(0)
	members := nb.Members(src)
	if len(members) < 3 {
		t.Skip("source neighborhood too small")
	}
	var near, far NodeID = -1, -1
	for _, mm := range members {
		if mm == src {
			continue
		}
		if nb.Dist(src, mm) == 1 && near < 0 {
			near = mm
		}
		if nb.Dist(src, mm) == 3 {
			far = mm
		}
	}
	if near < 0 || far < 0 {
		t.Skip("no 1-hop/3-hop pair available")
	}
	d := NewDirectory(200)
	d.Place(9, far)
	d.Place(9, near)
	r := discoverCARD(t, p, d, src, 9)
	if !r.Found || r.Holder != near {
		t.Errorf("nearest holder not preferred: %+v (near=%d far=%d)", r, near, far)
	}
}

func TestReplicationImprovesCARDDiscovery(t *testing.T) {
	net := testNet(5, 300)
	p := testProtocol(t, net)
	found1, found8 := 0, 0
	var msgs1, msgs8 int64
	for trial := 0; trial < 30; trial++ {
		rng := xrand.New(uint64(trial))
		d1 := NewDirectory(300)
		d1.PlaceReplicas(1, 1, rng)
		d8 := NewDirectory(300)
		d8.PlaceReplicas(1, 8, rng.Derive(1))
		src := NodeID(rng.Intn(300))
		r1 := discoverCARD(t, p, d1, src, 1)
		r8 := discoverCARD(t, p, d8, src, 1)
		if r1.Found {
			found1++
			msgs1 += r1.Messages
		}
		if r8.Found {
			found8++
			msgs8 += r8.Messages
		}
	}
	if found8 < found1 {
		t.Errorf("8 replicas found %d times, 1 replica %d times", found8, found1)
	}
}

func TestDiscoverFloodFindsNearest(t *testing.T) {
	net := testNet(6, 300)
	d := NewDirectory(300)
	comp := net.Graph().LargestComponent()
	if len(comp) < 50 {
		t.Skip("network too fragmented")
	}
	src := comp[0]
	bfs := net.Graph().BFS(src)
	// Place two holders at different distances within the component.
	var nearH, farH NodeID = -1, -1
	for _, v := range comp {
		d := bfs.Dist[v]
		if d == 2 && nearH < 0 {
			nearH = v
		}
		if d >= 6 && farH < 0 {
			farH = v
		}
	}
	if nearH < 0 || farH < 0 {
		t.Skip("could not place holders at distinct distances")
	}
	d.Place(3, farH)
	d.Place(3, nearH)
	r := discoverFlood(t, net, d, src, 3)
	if !r.Found || r.Holder != nearH {
		t.Errorf("flood holder = %+v, want nearest %d", r, nearH)
	}
	if r.PathHops != 2 {
		t.Errorf("PathHops = %d, want 2", r.PathHops)
	}
}

func TestExpandingRingCheaperThanFloodForNearHolder(t *testing.T) {
	netA := testNet(7, 300)
	netB := testNet(7, 300)
	comp := netA.Graph().LargestComponent()
	src := comp[0]
	bfs := netA.Graph().BFS(src)
	var holder NodeID = -1
	for _, v := range comp {
		if bfs.Dist[v] == 2 {
			holder = v
			break
		}
	}
	if holder < 0 {
		t.Skip("no 2-hop holder")
	}
	d := NewDirectory(300)
	d.Place(4, holder)
	ring := discoverRing(t, netA, d, src, 4)
	full := discoverFlood(t, netB, d, src, 4)
	if !ring.Found || !full.Found {
		t.Fatal("both should find the holder")
	}
	if ring.Messages >= full.Messages {
		t.Errorf("ring (%d msgs) not cheaper than flood (%d) for 2-hop holder",
			ring.Messages, full.Messages)
	}
}

func TestDiscoverUnreachableHolder(t *testing.T) {
	// Two components: holder in the other one.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 500, Y: 500}}
	a := geom.Rect{W: 600, H: 600}
	net := manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
	cfg := card.Config{R: 2, MaxContactDist: 6, NoC: 2}
	nb := neighborhood.NewOracle(net, cfg.R)
	p, err := card.New(net, nb, cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDirectory(3)
	d.Place(1, 2)
	if r := discoverCARD(t, p, d, 0, 1); r.Found {
		t.Errorf("found unreachable holder: %+v", r)
	}
	if r := discoverFlood(t, net, d, 0, 1); r.Found {
		t.Errorf("flood found unreachable holder: %+v", r)
	}
	if r := discoverRing(t, net, d, 0, 1); r.Found {
		t.Errorf("ring found unreachable holder: %+v", r)
	}
}

// TestSelfHeldResourceIsFreeEverywhere is the baseline-fairness regression
// pin: a resource the source itself holds costs zero messages and zero
// hops under all three discovery schemes. The flooding baselines used to
// charge a full flood here, inflating their overhead against CARD.
func TestSelfHeldResourceIsFreeEverywhere(t *testing.T) {
	net := testNet(8, 150)
	p := testProtocol(t, net)
	d := NewDirectory(150)
	src := NodeID(3)
	// Bury the self-placement among other holders so the short-circuit is
	// exercised past the first list entry.
	d.Place(1, 90)
	d.Place(1, src)
	d.Place(1, 10)
	for name, r := range map[string]Result{
		"card":  discoverCARD(t, p, d, src, 1),
		"flood": discoverFlood(t, net, d, src, 1),
		"ring":  discoverRing(t, net, d, src, 1),
	} {
		if !r.Found || r.Holder != src || r.Messages != 0 || r.PathHops != 0 {
			t.Errorf("%s: self-held resource = %+v, want found at holder %d, 0 msgs, 0 hops",
				name, r, src)
		}
	}
}

// deadNet builds a two-component topology: a connected cluster around src
// and three isolated far nodes to use as unreachable holders.
func deadNet() *manet.Network {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}, {X: 10, Y: 10}, // cluster
		{X: 500, Y: 500}, {X: 560, Y: 500}, {X: 500, Y: 560}, // isolated holders
	}
	a := geom.Rect{W: 600, H: 600}
	return manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 15}}, xrand.New(1))
}

// TestDeadSearchCostHolderOrderInvariant pins the second fairness fix: when
// no holder is reachable, the charged cost is the explicit full-component
// flood (or full ring escalation) from src — identical under every holder
// insertion order, and never a function of holders[0].
func TestDeadSearchCostHolderOrderInvariant(t *testing.T) {
	orders := [][]NodeID{{4, 5, 6}, {6, 4, 5}, {5, 6, 4}}
	var floodCosts, ringCosts []int64
	for _, order := range orders {
		d := NewDirectory(7)
		for _, h := range order {
			d.Place(2, h)
		}
		rf := discoverFlood(t, deadNet(), d, 0, 2)
		rr := discoverRing(t, deadNet(), d, 0, 2)
		if rf.Found || rr.Found {
			t.Fatalf("found unreachable holders: flood=%+v ring=%+v", rf, rr)
		}
		floodCosts = append(floodCosts, rf.Messages)
		ringCosts = append(ringCosts, rr.Messages)
	}
	for i := 1; i < len(orders); i++ {
		if floodCosts[i] != floodCosts[0] {
			t.Errorf("flood dead cost varies with holder order: %v", floodCosts)
		}
		if ringCosts[i] != ringCosts[0] {
			t.Errorf("ring dead cost varies with holder order: %v", ringCosts)
		}
	}
	// The flood charge is exactly src's component size (4 nodes).
	if floodCosts[0] != 4 {
		t.Errorf("dead flood cost = %d, want 4 (component size)", floodCosts[0])
	}
	// The ring escalation pays every failed ring plus the final full
	// flood, so it must exceed the single flood.
	if ringCosts[0] <= floodCosts[0] {
		t.Errorf("dead ring cost %d not above dead flood cost %d", ringCosts[0], floodCosts[0])
	}
}

// serialDiscover is the card lookup as the adapter ran it before the DSQ
// carried the resource, written as one single-holder Resolve per holder
// and kept as the oracle the one-sweep lookup is bounded by: self-held,
// then the nearest holder in the source's own table, then one full
// escalation per holder in placement order until one is found.
func serialDiscover(p *card.Protocol, d *resource.Directory, src NodeID, id ID) Result {
	holders, nb := d.Placed(id), p.Neighborhood()
	q := p.NewQuerier()
	defer q.Flush()
	best := Result{PathHops: -1}
	for _, h := range holders {
		if h == src {
			return Result{Found: true, Holder: src, PathHops: 0}
		}
		if nb.Contains(src, h) && (!best.Found || nb.Dist(src, h) < best.PathHops) {
			best = Result{Found: true, Holder: h, PathHops: nb.Dist(src, h)}
		}
	}
	if best.Found {
		return best
	}
	for _, h := range holders {
		r := q.Resolve(src, []NodeID{h})
		best.Messages += r.Messages
		if r.Found {
			return Result{Found: true, Holder: h, Messages: best.Messages, PathHops: r.PathHops}
		}
	}
	return best
}

// TestDiscoverCARDWithMatchesSerial bounds the card worker — the
// Querier-based unit the workload layer shards across workers — by the
// serial holder loop, lookup by lookup on twin networks. Found is equal,
// and the one sweep is a prefix of the loop's sweep for whichever holder
// the loop found (same depth or shallower, same leaf or an earlier one),
// so it never transmits or retries more queries. A different, earlier leaf
// can answer over a longer chain, so per lookup the reply leg — and with it
// Messages — may exceed the loop's; query plus reply traffic is bounded
// over the whole trial set.
func TestDiscoverCARDWithMatchesSerial(t *testing.T) {
	netA, netB := testNet(9, 250), testNet(9, 250)
	pa, pb := testProtocol(t, netA), testProtocol(t, netB)
	rng := xrand.New(21)
	d := NewDirectory(250)
	for id := 0; id < 20; id++ {
		d.PlaceReplicas(ID(id), 1+id%4, rng.Derive(uint64(id)))
	}
	w := worker(t, "card", netB, pb, d)
	remote := 0
	for trial := 0; trial < 200; trial++ {
		src := NodeID(rng.Intn(250))
		id := ID(rng.Intn(20))
		beforeA, beforeB := netA.Totals(), netB.Totals()
		serial := serialDiscover(pa, d, src, id)
		batch := w.Discover(src, id)
		w.Flush()
		loop, sweep := netA.Totals().DiffSince(beforeA), netB.Totals().DiffSince(beforeB)
		if serial.Found != batch.Found {
			t.Fatalf("trial %d (src %d, id %d): serial %+v, querier %+v", trial, src, id, serial, batch)
		}
		if serial.Messages == 0 && serial.PathHops != batch.PathHops {
			t.Fatalf("trial %d (src %d, id %d): answered locally, serial %+v, querier %+v", trial, src, id, serial, batch)
		}
		if batch.Messages != sweep.Get(manet.CatQuery)+sweep.Get(manet.CatReply) {
			t.Fatalf("trial %d (src %d, id %d): %+v, recorder moved by %v", trial, src, id, batch, sweep)
		}
		for _, c := range []manet.Category{manet.CatQuery, manet.CatRetry} {
			if sweep.Get(c) > loop.Get(c) {
				t.Fatalf("trial %d (src %d, id %d): category %d charged %d, the holder loop %d",
					trial, src, id, c, sweep.Get(c), loop.Get(c))
			}
		}
		if batch.Messages > 0 {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no lookup left the source's neighborhood")
	}
	ta, tb := netA.Totals(), netB.Totals()
	if loop, sweep := ta.Get(manet.CatQuery)+ta.Get(manet.CatReply), tb.Get(manet.CatQuery)+tb.Get(manet.CatReply); sweep > loop {
		t.Errorf("query+reply over the trial set: the one sweep %d, the holder loop %d", sweep, loop)
	}
}

// TestDiscoverOneReplicaIsNodeQuery is the metamorphic relation between
// the adapter and the protocol: with a single holder per resource,
// Discover(src, id) is Querier.Resolve(src, {holder}) field for field —
// the adapter's self-held shortcut included — and both charge the
// recorder the same.
func TestDiscoverOneReplicaIsNodeQuery(t *testing.T) {
	netA, netB := testNet(10, 250), testNet(10, 250)
	pa, pb := testProtocol(t, netA), testProtocol(t, netB)
	rng := xrand.New(22)
	d := NewDirectory(250)
	for id := 0; id < 40; id++ {
		d.PlaceReplicas(ID(id), 1, rng)
	}
	q, w := pa.NewQuerier(), worker(t, "card", netB, pb, d)
	for trial := 0; trial < 200; trial++ {
		src := NodeID(rng.Intn(250))
		id := ID(rng.Intn(40))
		holder := d.Placed(id)[0]
		node, res := q.Resolve(src, d.Placed(id)), w.Discover(src, id)
		if res != node {
			t.Fatalf("trial %d: Discover(%d, %d) = %+v, Resolve(%d, {%d}) = %+v", trial, src, id, res, src, holder, node)
		}
	}
	q.Flush()
	w.Flush()
	if ta, tb := netA.Totals(), netB.Totals(); ta != tb || ta.Get(manet.CatReply) == 0 {
		t.Errorf("recorder totals: node queries %v, lookups %v", ta, tb)
	}
}

// TestDiscoverCostAgainstHolderLoop is the acceptance check of the
// resource-keyed DSQ on the replicated-resource path cardsim -qps takes:
// on citywide-rwp-1k, one validation period in, with 8 replicas of each of
// 256 Zipf(0.9)-popular resources, the lookups through the scheme find
// exactly as often as the holder loop and cost at most a third of its
// messages (measured: 1987 of 2000 found on both sides, 40.8 against 387.6
// msgs/lookup).
func TestDiscoverCostAgainstHolderLoop(t *testing.T) {
	preset, err := engine.LookupPreset("citywide-rwp-1k")
	if err != nil {
		t.Fatal(err)
	}
	e, err := preset.New(1)
	if err != nil {
		t.Fatal(err)
	}
	e.SelectContacts()
	e.Advance(e.Config().ValidatePeriod)
	net, p := e.Network(), e.Protocol()
	rng := xrand.New(3)
	d := NewDirectory(net.N())
	for id := 0; id < 256; id++ {
		d.PlaceReplicas(ID(id), 8, rng)
	}
	w := worker(t, "card", net, p, d)
	zipf := xrand.NewZipf(256, 0.9)
	const lookups = 2000
	var found, loopFound int
	var msgs, loopMsgs int64
	for k := 0; k < lookups; k++ {
		src, id := NodeID(rng.Intn(net.N())), ID(zipf.Draw(rng))
		r, loop := w.Discover(src, id), serialDiscover(p, d, src, id)
		if r.Found != loop.Found {
			t.Fatalf("lookup %d (src %d, id %d): %+v, the holder loop %+v", k, src, id, r, loop)
		}
		if r.Found {
			found++
		}
		if loop.Found {
			loopFound++
		}
		msgs += r.Messages
		loopMsgs += loop.Messages
	}
	t.Logf("%d of %d found; %.1f msgs/lookup, the holder loop %.1f",
		found, lookups, float64(msgs)/lookups, float64(loopMsgs)/lookups)
	if found != loopFound || found == 0 || found == lookups {
		t.Errorf("found %d of %d, the holder loop %d", found, lookups, loopFound)
	}
	if 3*msgs > loopMsgs {
		t.Errorf("%d messages over %d lookups, more than a third of the holder loop's %d", msgs, lookups, loopMsgs)
	}
}

// lineNet builds a 4-node line 0—1—2—3 (60 m spacing, 70 m range) with a
// fifth isolated node far to the right. Distances from node 0 are exactly
// 1, 2, 3 hops — small enough to hand-compute TTL-escalation charges.
func lineNet() *manet.Network {
	a := geom.Rect{W: 1100, H: 50}
	pts := []geom.Point{
		{X: 0, Y: 10}, {X: 60, Y: 10}, {X: 120, Y: 10}, {X: 180, Y: 10},
		{X: 1000, Y: 10}, // isolated
	}
	return manet.NewNetwork(mobility.NewStatic(pts, a), manet.Config{Link: topology.LinkModel{Uniform: 70}}, xrand.New(1))
}

// TestExpandingRingAccountingHandComputed pins the per-ring charges of
// the TTL escalation on a hand-computed line: src 0 queries the holder at
// node 3, three hops out. The doubling schedule tries TTL 1 (1 relay),
// TTL 2 (2 relays), then TTL 4, which covers the holder: 3 relays (the
// answering holder does not relay) plus a 3-hop reply. Each ring is
// charged exactly once, and the successful final ring is not
// double-counted: 1 + 2 + 3 query relays and 3 reply hops, 9 messages
// total.
func TestExpandingRingAccountingHandComputed(t *testing.T) {
	net := lineNet()
	d := NewDirectory(net.N())
	d.Place(7, 3)
	r, rec := discover(t, "ring", net, nil, d, 0, 7)
	if !r.Found || r.Holder != 3 || r.PathHops != 3 {
		t.Fatalf("result = %+v, want holder 3 at 3 hops", r)
	}
	if r.Messages != 9 {
		t.Errorf("Messages = %d, want 9 (rings 1+2+3 + reply 3)", r.Messages)
	}
	if q := rec.Get(manet.CatQuery); q != 6 {
		t.Errorf("CatQuery = %d, want 6 (1+2+3, each ring charged once)", q)
	}
	if p := rec.Get(manet.CatReply); p != 3 {
		t.Errorf("CatReply = %d, want 3 (one reply along the route)", p)
	}
	// The recorder and the result must agree — the final ring's relays
	// and the reply appear in both exactly once.
	if total := rec.Total(); total != r.Messages {
		t.Errorf("recorder total %d != result messages %d", total, r.Messages)
	}
}

// TestExpandingRingDeadSearchAccountingHandComputed pins the escalation
// cost when no holder is reachable: the full doubling schedule runs over
// src's 4-node component. Rings TTL 1, 2 charge 1 and 2 relays; every
// ring from TTL 4 up covers the whole component (4 relays each, the
// TTL-less terminal flood included): 1+2+4+4+4+4+4 = 23, all CatQuery.
func TestExpandingRingDeadSearchAccountingHandComputed(t *testing.T) {
	net := lineNet()
	d := NewDirectory(net.N())
	d.Place(7, 4) // only holder is the isolated node
	r, rec := discover(t, "ring", net, nil, d, 0, 7)
	if r.Found || r.PathHops != -1 {
		t.Fatalf("result = %+v, want failed search", r)
	}
	if r.Messages != 23 {
		t.Errorf("Messages = %d, want 23 (1+2+4+4+4+4+4)", r.Messages)
	}
	if q := rec.Get(manet.CatQuery); q != 23 {
		t.Errorf("CatQuery = %d, want 23", q)
	}
	if p := rec.Get(manet.CatReply); p != 0 {
		t.Errorf("CatReply = %d, want 0 (no reply on a dead search)", p)
	}
}

// TestExpandingRingRecorderMatchesResult cross-checks the escalation
// accounting on a realistic topology: for every (src, holder distance)
// the recorder delta equals Result.Messages — rings are never charged
// twice and never dropped.
func TestExpandingRingRecorderMatchesResult(t *testing.T) {
	net := testNet(3, 120)
	d := NewDirectory(net.N())
	d.Place(1, 100)
	for src := 0; src < 40; src++ {
		r, rec := discover(t, "ring", net, nil, d, NodeID(src), 1)
		if got := rec.Total(); got != r.Messages {
			t.Fatalf("src %d: recorder delta %d != result messages %d (found=%v)",
				src, got, r.Messages, r.Found)
		}
	}
}
