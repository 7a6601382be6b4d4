package card

import (
	"slices"
	"testing"

	"card/internal/geom"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/neighborhood"
	"card/internal/topology"
	"card/internal/xrand"
)

// The selection path's own numbers, on one fixed field so they compare
// across commits without passing through the engine: 2000 static nodes at
// the citywide presets' density (mean degree ≈ 14), R=2, r=10, NoC=6, EM.
// Run with
//
//	go test -run '^$' -bench 'SelectNode|WalkEM|Ineligible|Querier|Discover|ShortenRoute' -benchmem ./internal/card

const benchNodes = 2000

var benchSink int

// benchProtocol builds the fixed field behind the provider newNB makes.
func benchProtocol(b *testing.B, newNB func(*manet.Network, int) neighborhood.Provider) *Protocol {
	b.Helper()
	area := geom.Rect{W: 2100, H: 2100}
	pts := topology.UniformPositions(benchNodes, area, xrand.New(42))
	net := manet.NewNetwork(mobility.NewStatic(pts, area), manet.Config{Link: topology.LinkModel{Uniform: 100}}, xrand.New(43))
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 3, Method: EM}
	p, err := New(net, newNB(net, cfg.R), cfg, xrand.New(44))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkSelectNode times one node's whole selection round from an empty
// table: shuffle, ineligible set, up to NoC successful CSQs.
func BenchmarkSelectNode(b *testing.B) {
	for _, prov := range testProviders {
		b.Run(prov.name, func(b *testing.B) {
			p := benchProtocol(b, prov.new)
			m := p.NewMaintainer()
			selectAll(p, 0) // resident views, grown scratch
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				u := NodeID(k % benchNodes)
				p.clearTable(u)
				benchSink += m.SelectNode(u, 0, 1)
				m.Flush()
			}
		})
	}
}

// BenchmarkWalkEM times one EM walk beyond the edge node, ineligible set
// and route already in hand. Each of 64 sources keeps its own Maintainer
// so the per-source set is computed outside the timed loop. The exhausted
// arm stamps the whole field ineligible on top, so every walk visits its
// source's entire r-region and comes home empty: all refilters and
// r-shell bounces, no accepted contact. pushes/op is the nodes the walk
// visited beyond the edge node, so ns/op ÷ pushes/op compares across
// commits whatever the walks' lengths.
func BenchmarkWalkEM(b *testing.B) {
	arms := []struct {
		name      string
		prov      int
		exhausted bool
	}{{testProviders[0].name, 0, false}, {testProviders[1].name, 1, false}, {"exhausted", 0, true}}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			p := benchProtocol(b, testProviders[arm.prov].new)
			type walk struct {
				m     *Maintainer
				route []NodeID
			}
			var walks []walk
			for u := NodeID(0); len(walks) < 64 && int(u) < benchNodes; u += 31 {
				edges := p.nb.EdgeNodes(u)
				if len(edges) == 0 {
					continue
				}
				route, _ := p.nb.AppendRoute(nil, u, edges[0])
				m := p.NewMaintainer()
				m.computeIneligible(u)
				if arm.exhausted {
					for x := range m.ineligible {
						m.ineligible[x] = m.ineligGen
					}
				}
				walks = append(walks, walk{m, route})
			}
			replyHops := 0
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				w := walks[k%len(walks)]
				w.m.rng.Reseed(uint64(k))
				if path, _ := w.m.walkEM(w.route); path != nil {
					replyHops += len(path) - 1
				}
			}
			b.StopTimer()
			// Every push charges one CSQ hop; a found contact's reply adds
			// its path length on top.
			pushes := -replyHops
			for _, w := range walks {
				pushes += int(w.m.pend.Get(manet.CatCSQ))
			}
			benchSink += pushes
			b.ReportMetric(float64(pushes)/float64(b.N), "pushes/op")
		})
	}
}

// BenchmarkIneligible times the per-round ineligible set of a node with a
// full table: the edge cover plus NoC contact neighborhoods.
func BenchmarkIneligible(b *testing.B) {
	for _, prov := range testProviders {
		b.Run(prov.name, func(b *testing.B) {
			p := benchProtocol(b, prov.new)
			selectAll(p, 0)
			m := p.NewMaintainer()
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				m.computeIneligible(NodeID(k % benchNodes))
			}
			benchSink += int(m.ineligGen)
		})
	}
}

// BenchmarkQuerierQuery times one destination search between random
// nodes of the field, tables full: the target's reverse ball, then up to
// three depth escalations through the walk memo.
func BenchmarkQuerierQuery(b *testing.B) {
	for _, prov := range testProviders {
		b.Run(prov.name, func(b *testing.B) {
			p := benchProtocol(b, prov.new)
			selectAll(p, 0)
			q := p.NewQuerier()
			pairs := randomPairs(xrand.New(45), benchNodes, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				pr := pairs[k%len(pairs)]
				if q.Query(pr[0], pr[1]).Found {
					benchSink++
				}
			}
		})
	}
}

// BenchmarkDiscover8Replicas times the lookup scheme.cardWorker.Discover
// runs for a resource with eight replicas: one stamp of the eight reverse
// balls, then one escalation in which any contact that knows any holder
// answers.
func BenchmarkDiscover8Replicas(b *testing.B) {
	for _, prov := range testProviders {
		b.Run(prov.name, func(b *testing.B) {
			p := benchProtocol(b, prov.new)
			selectAll(p, 0)
			q := p.NewQuerier()
			rng := xrand.New(46)
			lookups := make([][9]NodeID, 512) // a source, then its resource's 8 holders
			for i := range lookups {
				for j := range lookups[i] {
					lookups[i][j] = NodeID(rng.Intn(benchNodes))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				l := &lookups[k%len(lookups)]
				if q.Resolve(l[0], l[1:]).Found {
					benchSink++
				}
			}
		})
	}
}

// spliceRoute is validatePath's walk without its accounting or its cut:
// old with every break spliced by local recovery, or nil when old is intact
// or lost.
func spliceRoute(p *Protocol, old []NodeID) []NodeID {
	var out []NodeID
	for i := 0; i+1 < len(old); {
		if p.net.Bidirectional(old[i], old[i+1]) {
			if out != nil {
				out = append(out, old[i+1])
			}
			i++
			continue
		}
		if out == nil {
			out = append([]NodeID(nil), old[:i+1]...)
		}
		j := i + 1
		for ; j < len(old); j++ {
			if sub, ok := p.nb.AppendRoute(nil, old[i], old[j]); ok {
				out = append(out, sub[1:]...)
				break
			}
		}
		if j == len(old) {
			return nil
		}
		i = j
	}
	return out
}

// BenchmarkShortenRoute times the cut of one spliced route, over the routes
// a steady round of the citywide-rwp-5k field splices: 5000 RWP nodes over
// 3000×3000 m, 100 m radio, 10 s pauses, R=2, r=10, NoC=8, EM, maintained
// every 2 s up to t = 20 s, then moved 1.9 s on. nodes/op is the mean
// spliced route length, so ns/op ÷ nodes/op compares across commits
// whatever the field's routes look like.
func BenchmarkShortenRoute(b *testing.B) {
	area := geom.Rect{W: 3000, H: 3000}
	mob, err := mobility.NewRandomWaypoint(5000, area, mobility.RWPConfig{MinSpeed: 1, MaxSpeed: 19, Pause: 10}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	net := manet.NewNetwork(mob, manet.Config{Link: topology.LinkModel{Uniform: 100}}, xrand.New(2))
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 8, Depth: 3, Method: EM, ValidatePeriod: 2}
	p, err := New(net, neighborhood.NewOracle(net, cfg.R), cfg, xrand.New(3))
	if err != nil {
		b.Fatal(err)
	}
	selectAll(p, 0)
	for t := 2.0; t <= 20; t += 2 {
		net.RefreshAt(t)
		p.MaintainAll(t)
	}
	net.RefreshAt(21.9)
	var routes [][]NodeID
	nodes := 0
	for u := 0; u < net.N(); u++ {
		for _, c := range p.Table(NodeID(u)).Contacts() {
			if r := spliceRoute(p, c.Path); r != nil {
				routes = append(routes, r)
				nodes += len(r)
			}
		}
	}
	if len(routes) == 0 {
		b.Fatal("the round spliced no route")
	}
	m := p.NewMaintainer()
	var buf []NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		buf = append(buf[:0], routes[k%len(routes)]...)
		benchSink += len(m.shortenRoute(buf))
	}
	b.ReportMetric(float64(nodes)/float64(len(routes)), "nodes/op")
}

// TestAllocBudgetQuery pins a steady-state Querier.Query at zero
// allocations: the first call sizes the walk memo and the BFS queue, and
// nothing after it allocates — the one-element target set included —
// whichever provider answers.
func TestAllocBudgetQuery(t *testing.T) {
	for _, w := range refWorlds(31, 300) {
		cfg := Config{R: 2, MaxContactDist: 10, NoC: 4, Depth: 3, Method: EM}
		p, err := New(w.net, w.nb(w.net, cfg.R), cfg, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		selectAll(p, 0)
		q := p.NewQuerier()
		pairs := randomPairs(xrand.New(32), 300, 200)
		run := func() {
			for _, pr := range pairs {
				q.Query(pr[0], pr[1])
			}
		}
		run()
		if got := testing.AllocsPerRun(10, run); got != 0 {
			t.Errorf("%s: %d steady-state queries allocate %.0f times, want 0", w.name, len(pairs), got)
		}
	}
}

// BenchmarkExpireNodes times one refresh's churn expiry on a warmed 20k
// field: 20000 static nodes at the citywide density (the bench field
// scaled up), R=2, r=10, NoC=6, EM, under churn (mean up 200 s, down 20 s)
// expired and refilled every 10 s up to t = 60 s. Each op expires four up
// nodes that other tables hold; the tables it touched are restored
// untimed, so every op sees the same steady field. expired/op is the
// entries an op drops, so ns/op ÷ expired/op compares across commits.
func BenchmarkExpireNodes(b *testing.B) {
	const n = 20000
	area := geom.Rect{W: 6640, H: 6640}
	churn, err := manet.NewChurn(n, manet.ChurnConfig{MeanUp: 200, MeanDown: 20}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	net := manet.NewNetwork(mobility.NewStatic(topology.UniformPositions(n, area, xrand.New(2)), area),
		manet.Config{Link: topology.LinkModel{Uniform: 100}, Churn: churn}, xrand.New(3))
	cfg := Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 3, Method: EM}
	p, err := New(net, neighborhood.NewOracle(net, cfg.R), cfg, xrand.New(4))
	if err != nil {
		b.Fatal(err)
	}
	selectAll(p, 0)
	for t := 10.0; t <= 60; t += 10 {
		net.RefreshAt(t)
		p.ExpireNodes(net.ChurnedDown())
		for _, v := range net.ChurnedUp() {
			p.ResetNode(v)
		}
		selectAll(p, t)
	}
	rng := xrand.New(5)
	var batches [][]NodeID
	for len(batches) < 256 {
		var batch []NodeID
		for len(batch) < 4 {
			if v := NodeID(rng.Intn(n)); net.Up(v) && len(p.heldBy[v]) > 0 {
				batch = append(batch, v)
			}
		}
		batches = append(batches, batch)
	}
	type saved struct {
		owner NodeID
		cs    []Contact
	}
	var keep []saved
	expired := p.Stats().ContactsExpired
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		batch := batches[k%len(batches)]
		b.StopTimer()
		keep = keep[:0]
		for _, v := range batch {
			for _, u := range append([]NodeID{v}, p.heldBy[v]...) {
				cs := slices.Clone(p.tables[u].Contacts())
				for i := range cs {
					cs[i].Path = slices.Clone(cs[i].Path)
				}
				keep = append(keep, saved{u, cs})
			}
		}
		b.StartTimer()
		benchSink += len(p.ExpireNodes(batch))
		b.StopTimer()
		for _, s := range keep { // an owner listed twice is restored twice, harmlessly
			p.clearTable(s.owner)
			for _, c := range s.cs {
				inject(p, s.owner, c)
			}
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Stats().ContactsExpired-expired)/float64(b.N), "expired/op")
}
