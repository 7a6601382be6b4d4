package experiments

import (
	"fmt"
	"math"
	"time"

	"card/internal/bordercast"
	"card/internal/card"
	"card/internal/engine"
	"card/internal/manet"
	"card/internal/resource"
	"card/internal/scheme"
	"card/internal/sweep"
	"card/internal/workload"
	"card/internal/xrand"
)

// ablMethods compares the three contact-selection protocols on the
// workhorse scenario: selection traffic, backtracking, contacts found,
// contact distance, and the reachability they buy.
func ablMethods(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	methods := []card.Method{card.PM1, card.PM2, card.EM}
	return rows{
		title:  fmt.Sprintf("Ablation: selection method (N=%d, R=3, r=16, NoC=5)", sc.N),
		cols:   []string{"Method", "CSQ/node", "Backtrack/node", "Contacts/node", "Mean dist", "Reach%"},
		points: len(methods),
		label:  func(p int) any { return methods[p] },
		cell: func(p int, seed uint64) []float64 {
			e := deploy(sc.engineNet(seed, engine.Static), card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 1, Method: methods[p]})
			prot, m := e.Protocol(), e.Messages()
			n := float64(e.Nodes())
			dist := 0.0
			if ds := prot.ContactDistances(); len(ds) > 0 {
				sum := 0
				for _, d := range ds {
					sum += d
				}
				dist = float64(sum) / float64(len(ds))
			}
			return []float64{
				float64(m.Selection) / n,
				float64(m.Backtrack) / n,
				float64(prot.TotalContacts()) / n,
				dist,
				e.MeanReachability(1),
			}
		},
	}.table(o)
}

// ablRecovery quantifies what local recovery buys under mobility: contact
// survival and maintenance traffic with recovery on vs off.
func ablRecovery(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	return rows{
		title:  fmt.Sprintf("Ablation: local recovery over 10 s RWP (N=%d, R=3, r=12, NoC=5)", sc.N),
		cols:   []string{"Recovery", "Lost/node", "Too far/node", "Splices/node", "Maint msgs/node", "Final contacts/node"},
		points: 2,
		label:  func(p int) any { return []string{"on", "off"}[p] },
		cell: func(p int, seed uint64) []float64 {
			e := deploy(sc.engineNet(seed, engine.RandomWaypoint), card.Config{
				R: 3, MaxContactDist: 12, NoC: 5, Depth: 1, Method: card.EM,
				ValidatePeriod: 1, DisableLocalRecovery: p == 1,
			})
			mobileRun(e, 10, nil)
			n := float64(e.Nodes())
			st, m := e.Stats(), e.Messages()
			return []float64{
				float64(st.ContactsLost) / n,
				float64(st.TooFarDrops) / n,
				float64(st.Recoveries) / n,
				float64(m.Validation+m.Recovery) / n,
				float64(e.Protocol().TotalContacts()) / n,
			}
		},
	}.table(o)
}

// ablQD compares bordercast query-detection modes: traffic and success
// per query.
func ablQD(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	modes := []bordercast.QDMode{bordercast.QDNone, bordercast.QD1, bordercast.QD2}
	return rows{
		title:  fmt.Sprintf("Ablation: bordercast query detection (N=%d, zone=3)", sc.N),
		cols:   []string{"QD mode", "Msgs/query", "Success%"},
		points: len(modes),
		label:  func(p int) any { return modes[p] },
		cell: func(p int, seed uint64) []float64 {
			// No contacts (NoC 0): bordercast reads only the engine's
			// zone-radius neighborhood.
			e := deploy(sc.engineNet(seed, engine.Static), card.Config{R: 3, MaxContactDist: 16})
			net := e.Network()
			bc := must(bordercast.New(net, e.Neighborhood(), bordercast.Config{Zone: 3, QD: modes[p]}))
			const queries = 30
			found := 0
			var sum int64
			for _, pr := range e.RandomPairs(queries, seed) {
				res := bc.Query(net.Recorder(), pr.Src, pr.Dst)
				sum += res.Messages
				if res.Found {
					found++
				}
			}
			return []float64{float64(sum) / queries, 100 * float64(found) / queries}
		},
	}.table(o)
}

// smallWorld quantifies the small-world argument of §I: contacts as short
// cuts. It reports the base graph's clustering and characteristic path
// length, then the "degrees of separation" achievable through the contact
// tree as NoC grows — on the one seed-1 topology its title describes.
func smallWorld(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	census := deploy(sc.engineNet(1, engine.Static), bare).Report(nil).Census
	t := NewTable(
		fmt.Sprintf("Small-world view (N=%d): clustering=%.3f, avg path=%.2f hops",
			sc.N, census.MeanClustering, census.AvgHops),
		"NoC", "Reach% D=1", "Reach% D=2", "Reach% D=3")
	for _, noc := range []int{1, 3, 5, 8} {
		e := deploy(sc.engineNet(1, engine.Static), card.Config{R: 3, MaxContactDist: 16, NoC: noc, Depth: 3, Method: card.EM})
		t.Add(noc, e.MeanReachability(1), e.MeanReachability(2), e.MeanReachability(3))
	}
	return t
}

// ablMobility implements the paper's footnote 1 / §V future work:
// "different mobility models may have different effects on performance of
// CARD". It runs the same 10 s maintenance workload under every movement
// structure the scenario engine offers — Static, RWP, bounded RandomWalk,
// Gauss–Markov drift, reference-point group mobility — plus RWP with node
// churn, and compares contact survival and overhead. Rows run through the
// engine itself (scheduled maintenance every ValidatePeriod, churn expiry
// between rounds), so the ablation measures exactly what preset runs do.
func ablMobility(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	models := []struct {
		name string
		mut  func(*engine.NetworkConfig)
	}{
		{"static", func(*engine.NetworkConfig) {}},
		{"waypoint", func(nc *engine.NetworkConfig) { nc.Mobility = engine.RandomWaypoint }},
		{"walk", func(nc *engine.NetworkConfig) { nc.Mobility = engine.RandomWalk }},
		{"gauss-markov", func(nc *engine.NetworkConfig) {
			nc.Mobility, nc.GMAlpha, nc.GMSpeedSigma = engine.GaussMarkov, 0.75, 2
		}},
		{"group", func(nc *engine.NetworkConfig) {
			nc.Mobility = engine.GroupMobility
			nc.Groups = sc.N / 25
			nc.GroupRadius = 3 * sc.TxRange
			nc.MinSpeed, nc.MaxSpeed, nc.Pause, nc.MemberSpeed = 1, 5, 5, 2
		}},
		{"waypoint+churn", func(nc *engine.NetworkConfig) {
			nc.Mobility = engine.RandomWaypoint
			nc.ChurnMeanUp, nc.ChurnMeanDown = 8, 3
		}},
	}
	return rows{
		title:  fmt.Sprintf("Ablation: mobility model over 10 s (N=%d, R=3, r=12, NoC=5)", sc.N),
		cols:   []string{"Mobility", "Lost/node", "Expired/node", "Splices/node", "Overhead/node", "Final contacts/node"},
		points: len(models),
		label:  func(p int) any { return models[p].name },
		cell: func(p int, seed uint64) []float64 {
			nc := sc.engineNet(seed, engine.Static)
			models[p].mut(&nc)
			e := deploy(nc, card.Config{R: 3, MaxContactDist: 12, NoC: 5, Depth: 1, Method: card.EM, ValidatePeriod: 1})
			mobileRun(e, 10, nil)
			n := float64(e.Nodes())
			st := e.Stats()
			return []float64{
				float64(st.ContactsLost) / n,
				float64(st.ContactsExpired) / n,
				float64(st.Recoveries) / n,
				float64(e.Messages().Overhead()) / n,
				float64(e.Protocol().TotalContacts()) / n,
			}
		},
	}.table(o)
}

// replication implements the paper's §V "resource distributions" future
// work: how replication changes discovery cost and success for CARD vs
// flooding vs expanding-ring anycast.
func replication(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	replicas := []int{1, 2, 4, 8, 16}
	return rows{
		title:  fmt.Sprintf("Extension: resource replication (N=%d, R=3, r=16, NoC=5, D=2)", sc.N),
		cols:   []string{"Replicas", "CARD msgs/lookup", "CARD success%", "Flood msgs/lookup", "Ring msgs/lookup"},
		points: len(replicas),
		label:  func(p int) any { return replicas[p] },
		cell: func(p int, seed uint64) []float64 {
			e := deploy(sc.engineNet(seed, engine.Static), card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2, Method: card.EM})
			// One directory the three arms share; lookup q places resource q
			// just before asking for it.
			dir := resource.NewDirectory(sc.N)
			worker := func(name string) scheme.Worker {
				return must(scheme.New(name, scheme.Env{Net: e.Network(), Prot: e.Protocol(), Dir: dir})).Worker()
			}
			cardW, floodW, ringW := worker("card"), worker("flood"), worker("ring")

			rng := xrand.New(seed).Derive(55)
			const lookups = 40
			var cardMsgs, cardHit, floodMsgs, ringMsgs float64
			for q := 0; q < lookups; q++ {
				id := resource.ID(q)
				dir.PlaceReplicas(id, replicas[p], rng.Derive(uint64(q)))
				src := manet.NodeID(rng.Intn(sc.N))
				rc := cardW.Discover(src, id)
				cardMsgs += float64(rc.Messages) / lookups
				if rc.Found {
					cardHit += 100.0 / lookups
				}
				floodMsgs += float64(floodW.Discover(src, id).Messages) / lookups
				ringMsgs += float64(ringW.Discover(src, id).Messages) / lookups
			}
			return []float64{cardMsgs, cardHit, floodMsgs, ringMsgs}
		},
	}.table(o)
}

// sustained compares every registered discovery scheme — CARD, the
// flooding and expanding-ring baselines, ZRP bordercasting and Rendezvous
// Regions — under sustained open-loop query traffic with node churn: a
// Poisson request stream with Zipf-skewed resource popularity keeps
// arriving while nodes move, power off and rejoin. Every scheme row is
// offered the bit-identical request sequence (same seeds drive the same
// arrival/popularity/placement streams), so the per-query message
// quantiles — not just means — are directly comparable. This is the
// serving-scale extension of Fig. 15's one-shot comparison, and it relies
// on the baseline fairness fixes: self-held resources answer locally at
// zero cost under every scheme, and dead searches charge an explicit
// full-component flood.
func sustained(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	schemes := scheme.Names()
	return rows{
		title:  fmt.Sprintf("Extension: sustained query traffic under churn (N=%d, 40 qps x 15 s, Zipf 0.9, 2 replicas)", sc.N),
		cols:   []string{"Scheme", "Success %", "Offline src %", "Msgs mean", "Msgs P50", "Msgs P95", "Msgs P99", "Hops P50", "Hops P95"},
		points: len(schemes),
		label:  func(p int) any { return schemes[p] },
		cell: func(p int, seed uint64) []float64 {
			nc := sc.engineNet(seed, engine.RandomWaypoint)
			nc.MinSpeed, nc.MaxSpeed = 1, 10
			nc.ChurnMeanUp, nc.ChurnMeanDown = 40, 8
			e := deploy(nc, card.Config{R: 3, MaxContactDist: 16, NoC: 5, Depth: 2, Method: card.EM, ValidatePeriod: 2})
			rep := must(e.RunWorkload(workload.Config{
				QPS: 40, Duration: 15, Resources: 64, Replicas: 2, ZipfS: 0.9,
				Scheme: schemes[p], Seed: seed,
			}))
			return []float64{
				rep.SuccessPct,
				100 * float64(rep.SrcDown) / float64(max(rep.Queries, 1)),
				rep.Messages.Mean, rep.Messages.P50, rep.Messages.P95, rep.Messages.P99,
				rep.Hops.P50, rep.Hops.P95,
			}
		},
	}.table(o)
}

// SweepTable renders a completed sweep as an experiments table: one row
// per seed-averaged grid point, a "*" in the pareto column marking the
// overhead-vs-reachability frontier.
func SweepTable(title string, res *sweep.Result) *Table {
	t := NewTable(title, res.Headers()...)
	for p := range res.Points {
		t.Add(res.RowCells(p)...)
	}
	return t
}

// stockSweep is the `sweep` experiment: a stock NoC x r grid over the
// paper's workhorse scenario run through the generic sweep engine —
// 10 s of random-waypoint mobility with scheduled maintenance, then 50
// CARD lookups per cell over the sweep's 64-resource catalogue. It demonstrates the trade-off surface the
// Fig. 10-14 declarations each slice one line through; ad-hoc grids over
// any preset run via `cardsim -sweep`. Its cells are the sweep engine's
// (sweep.EngineRunner, seeded per grid coordinate from the scenario's
// network seed), not this package's.
func stockSweep(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	er := sweep.EngineRunner{Net: sc.engineNet(0, engine.RandomWaypoint), Horizon: 10, Queries: 50}
	g := &sweep.Grid{Base: fig10Base(), Axes: must(sweep.ParseSpec("NoC=2..8..2;r=8..14..2")), Seeds: o.Seeds}
	return SweepTable(
		fmt.Sprintf("Sweep: overhead vs reachability over NoC x r (N=%d, R=3, D=1, 10 s RWP, %d seed(s); * = Pareto frontier)",
			sc.N, o.Seeds),
		must(g.Run(er.Run)))
}

// scale exercises the engine's workload presets beyond the paper's
// 250–1000-node scenarios: for each preset it advances the scenario over
// its horizon, fans a batched query load, and reports topology shape,
// discovery quality and wall-clock throughput. This is the scaling
// counterpart to Table 1 — where the paper characterizes connectivity, this
// table characterizes engine cost at production sizes.
//
// Scale (Options.Scale) shrinks node counts density-preserving like every
// other experiment, so CI can sweep the presets cheaply while -scale 1
// reproduces the full 1k–5k regime.
func scale(o Options) *Table {
	t := NewTable(
		fmt.Sprintf("Engine presets under batched query load (scale %g, %d seed(s))", o.Scale, o.Seeds),
		"preset", "nodes", "degree", "reach-D1 %", "found %", "msgs/query", "sim-s", "advance-ms", "wall-ms")
	const queries = 500
	// One preset at a time — a one-point grid each, only its seeds in
	// flight — so the wall-clock columns and the resident set are one
	// preset's, not the whole registry's.
	for _, p := range engine.Presets() {
		nc := p.Net
		if o.Scale < 1 {
			nc.Nodes = max(int(float64(nc.Nodes)*o.Scale), minNodes)
			s := math.Sqrt(o.Scale)
			nc.Width *= s
			nc.Height *= s
		}
		avg := means(o, 1, func(_ int, seed uint64) []float64 {
			start := time.Now()
			seeded := nc
			seeded.Seed = seed
			e := must(engine.New(seeded, p.Protocol))
			e.SelectContacts()
			// advance is the wall-clock spent inside Engine.Advance — mobility,
			// topology refreshes and the (sharded) maintenance rounds; reported
			// separately so the parallel-maintenance speedup is visible per preset.
			var advance time.Duration
			if p.Horizon > 0 {
				t0 := time.Now()
				e.Advance(p.Horizon)
				advance = time.Since(t0)
			}
			res := must(e.BatchQuery("card", e.RandomPairs(queries, seed^0xa5a5a5a5)))
			wall := time.Since(start)
			r := e.Report(res)
			// 2·links/N at every preset: Census.MeanDegree is links/N on a
			// directed graph.
			return []float64{
				2 * float64(r.Census.Links) / float64(r.Nodes), r.ReachD1, r.Batch.FoundPct, r.Batch.MsgsPerQuery,
				float64(advance.Milliseconds()), float64(wall.Milliseconds()),
			}
		})[0]
		t.Add(p.Name, nc.Nodes, avg[0], avg[1], avg[2], avg[3], p.Horizon, avg[4], avg[5])
	}
	return t
}
