package experiments

import (
	"fmt"

	"card/internal/bordercast"
	"card/internal/card"
	"card/internal/engine"
	"card/internal/flood"
	"card/internal/manet"
	"card/internal/stats"
	"card/internal/sweep"
	"card/internal/topology"
)

// table1 regenerates Table 1: the connectivity census of all eight
// scenarios, averaged over seeds. It is the one artifact whose seed mean
// is Welford's running mean, not average's Σ v/seeds — the arithmetic its
// digits have always been printed with.
func table1(o Options) *Table {
	t := NewTable(
		fmt.Sprintf("Table 1: scenario census (avg of %d seeds, scale %g)", o.Seeds, o.Scale),
		"No.", "Nodes", "Area", "TxRange", "Links", "Degree", "Diameter", "AvgHops", "LCC")
	for p, runs := range sweep.Cells(len(Table1Scenarios), o.Seeds, func(p int, seed uint64) [5]float64 {
		sc := Table1Scenarios[p].Scaled(o.Scale)
		c := deploy(sc.engineNet(seed, engine.Static), bare).Network().Graph().ComputeCensus()
		return [5]float64{float64(c.Links), c.MeanDegree, float64(c.Diameter), c.AvgHops, c.LargestComponentFrac}
	}) {
		var w [5]stats.Welford
		for _, r := range runs {
			for i, v := range r {
				w[i].Add(v)
			}
		}
		s := Table1Scenarios[p].Scaled(o.Scale)
		t.Add(s.ID, s.N, s.Area.String(), s.TxRange,
			w[0].Mean(), w[1].Mean(), w[2].Mean(), w[3].Mean(), w[4].Mean())
	}
	return t
}

// nocByMethod is the Fig. 3/4 grid under the configuration printed there
// (500 nodes, 710x710 m, 50 m range, R=3, r=20, D=1): point 2i is
// NoC = i+1 under the probabilistic method (PM2), point 2i+1 under the
// edge method.
func nocByMethod(point int) card.Config {
	return card.Config{
		R: 3, MaxContactDist: 20, Depth: 1,
		NoC: point/2 + 1, Method: [2]card.Method{card.PM2, card.EM}[point%2],
	}
}

// nocByMethodTable lays points values of the nocByMethod grid out one NoC
// per row.
func nocByMethodTable(title, unit string, points int, val func(point int) float64) *Table {
	t := NewTable(title, "NoC", "PM "+unit, "EM "+unit)
	for p := 0; p < points; p += 2 {
		t.Add(p/2+1, val(p), val(p+1))
	}
	return t
}

// fig3 regenerates Fig. 3: mean reachability vs NoC (1..9) for the
// probabilistic and edge methods.
func fig3(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	pts := make([]reachPoint, 2*9)
	for p := range pts {
		pts[p] = reachPoint{sc: sc, cfg: nocByMethod(p)}
	}
	dists := reachability(o, pts)
	return nocByMethodTable(
		fmt.Sprintf("Fig 3: reachability vs NoC, PM vs EM (N=%d, R=3, r=20, D=1)", sc.N),
		"reach%", len(pts), func(p int) float64 { return dists[p].mean.Mean() })
}

// fig4 regenerates Fig. 4: backtracking messages per node during contact
// selection vs NoC (1..5), PM vs EM.
func fig4(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	back := means(o, 2*5, func(p int, seed uint64) []float64 {
		e := deploy(sc.engineNet(seed, engine.Static), nocByMethod(p))
		return []float64{float64(e.Network().Totals().Get(manet.CatBacktrack)) / float64(e.Nodes())}
	})
	return nocByMethodTable(
		fmt.Sprintf("Fig 4: backtracking per node vs NoC, PM vs EM (N=%d, R=3, r=20)", sc.N),
		"backtracks/node", len(back), func(p int) float64 { return back[p][0] })
}

// Figs. 5-8 each sweep one parameter of the edge method on the workhorse
// scenario. Fig. 5: R = 1..7 (r=16, NoC=10, D=1).
var fig5 = reachFig{
	title: "Fig 5: reachability distribution vs R (N=%d, r=16, NoC=10, D=1)",
	base:  card.Config{MaxContactDist: 16, NoC: 10, Depth: 1, Method: card.EM}, spec: "R=1..7",
}

// Fig. 6: r = 2R..2R+12 (R=3, NoC=10, D=1).
var fig6 = reachFig{
	title: "Fig 6: reachability distribution vs r (N=%d, R=3, NoC=10, D=1)",
	base:  card.Config{R: 3, NoC: 10, Depth: 1, Method: card.EM}, spec: "r=6..18..2",
	label: func(c card.Config) string { return fmt.Sprintf("r=2R+%d", c.MaxContactDist-2*c.R) },
}

// Fig. 7: NoC = 0..12 (R=3, r=10, D=1); deploy handles the NoC=0 curve.
var fig7 = reachFig{
	title: "Fig 7: reachability distribution vs NoC (N=%d, R=3, r=10, D=1)",
	base:  card.Config{R: 3, MaxContactDist: 10, Depth: 1, Method: card.EM}, spec: "NoC=0..12..2",
}

// Fig. 8: D = 1..3 (R=3, NoC=10, r=10).
var fig8 = reachFig{
	title: "Fig 8: reachability distribution vs D (N=%d, R=3, r=10, NoC=10)",
	base:  card.Config{R: 3, MaxContactDist: 10, NoC: 10, Method: card.EM}, spec: "D=1..3",
}

// sizeConfigs are the per-size tunings printed inside Fig. 9, which
// Fig. 15 re-uses.
var sizeConfigs = []struct {
	sc        Scenario
	NoC, R, r int
}{
	{Table1Scenarios[0], 10, 3, 14}, // 250 nodes, 500x500
	{Scenario5, 12, 5, 17},          // 500 nodes, 710x710
	{Table1Scenarios[7], 15, 6, 24}, // 1000 nodes, 1000x1000
}

// fig9 regenerates Fig. 9: reachability distributions for three network
// sizes with per-size (R, r, NoC) tunings.
func fig9(o Options) *Table {
	pts := make([]reachPoint, len(sizeConfigs))
	for i, fc := range sizeConfigs {
		sc := fc.sc.Scaled(o.Scale)
		pts[i] = reachPoint{
			fmt.Sprintf("N=%d,R=%d,r=%d,NoC=%d", sc.N, fc.R, fc.r, fc.NoC),
			sc, card.Config{R: fc.R, MaxContactDist: fc.r, NoC: fc.NoC, Depth: 1, Method: card.EM},
		}
	}
	return reachTable(o, "Fig 9: reachability distribution across network sizes", pts)
}

// fig10Base is the configuration printed under Fig. 10: R=3, r=10, D=1,
// validation every second.
func fig10Base() card.Config {
	return card.Config{R: 3, MaxContactDist: 10, Depth: 1, Method: card.EM, ValidatePeriod: 1}
}

// Fig. 10: overhead per node over time for NoC = 3, 4, 5, 7 (N=500, R=3,
// r=10).
var fig10 = seriesFig{
	title: "Fig 10: overhead per node vs time by NoC (N=%d, R=3, r=10)",
	sc:    Scenario5, base: fig10Base(), spec: "NoC=3,4,5,7", horizon: 10,
	project: []int{colOverhead},
}

// Fig. 11: total overhead per node over time for r = 8, 9, 10, 12, 15
// (NoC=5, R=3).
var fig11 = seriesFig{
	title: "Fig 11: total overhead per node vs time by r (N=%d, NoC=5, R=3)",
	sc:    Scenario5, spec: "r=8,9,10,12,15", horizon: 10,
	base:    card.Config{R: 3, NoC: 5, Depth: 1, Method: card.EM, ValidatePeriod: 1},
	project: []int{colOverhead},
}

// Fig. 12: backtracking overhead per node over time for the same sweep as
// Fig. 11.
var fig12 = seriesFig{
	title: "Fig 12: backtracking per node vs time by r (N=%d, NoC=5, R=3)",
	sc:    fig11.sc, base: fig11.base, spec: fig11.spec, horizon: fig11.horizon,
	project: []int{colBacktrack},
}

// Fig. 13: maintenance overhead per node and total selected contacts over
// a 20 s run (N=250, NoC=6, R=4, r=16) — the degenerate single-point grid.
var fig13 = seriesFig{
	title: "Fig 13: maintenance overhead and contact count over time (N=%d, NoC=6, R=4, r=16)",
	sc:    Table1Scenarios[1], horizon: 20, // 250 nodes, 710x710
	base:    card.Config{R: 4, MaxContactDist: 16, NoC: 6, Depth: 1, Method: card.EM, ValidatePeriod: 1},
	project: []int{colMaintenance, colContacts},
	cols:    []string{"maintenance msgs/node", "total contacts"},
}

// fig14Cell measures one Fig. 14 cell: reachability bought and overhead
// paid after 10 s of maintained mobility. NoC 0 is the paper's
// no-contacts baseline: selection never runs (deploy) and neither does
// the clock, so overhead is zero and reachability is the bare
// neighborhood's.
func fig14Cell(sc Scenario, cfg card.Config, seed uint64) []float64 {
	e := deploy(sc.engineNet(seed, engine.RandomWaypoint), cfg)
	if cfg.NoC != 0 {
		mobileRun(e, 10, nil)
	}
	return []float64{
		e.MeanReachability(cfg.Depth),
		float64(e.Network().Totals().Sum(overheadCats...)) / float64(e.Nodes()),
	}
}

// fig14 regenerates Fig. 14: the normalized reachability-vs-overhead
// trade-off as NoC grows 0..10 (R=3, r=10, 10 s mobile horizon).
func fig14(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	_, cfgs := gridConfigs(fig10Base(), "NoC=0..10")
	avg := means(o, len(cfgs), func(p int, seed uint64) []float64 { return fig14Cell(sc, cfgs[p], seed) })
	maxReach, maxOver := 0.0, 0.0
	for _, m := range avg {
		maxReach, maxOver = max(maxReach, m[0]), max(maxOver, m[1])
	}
	t := NewTable(
		fmt.Sprintf("Fig 14: normalized reachability vs overhead trade-off (N=%d, R=3, r=10)", sc.N),
		"NoC", "reach%", "overhead/node", "norm reach", "norm overhead")
	for p, m := range avg {
		nr, no := 0.0, 0.0
		if maxReach > 0 {
			nr = m[0] / maxReach
		}
		if maxOver > 0 {
			no = m[1] / maxOver
		}
		t.Add(cfgs[p].NoC, m[0], m[1], nr, no)
	}
	return t
}

// fig15 regenerates Fig. 15: querying traffic per node for flooding,
// bordercasting and CARD across three network sizes, plus CARD's
// selection+maintenance overhead and its query success rate.
func fig15(o Options) *Table {
	return rows{
		title:  fmt.Sprintf("Fig 15: querying traffic per node, 50 queries (avg of %d seeds)", o.Seeds),
		cols:   []string{"N", "Flooding", "Bordercasting", "CARD", "CARD overhead", "CARD success%"},
		points: len(sizeConfigs),
		label:  func(p int) any { return sizeConfigs[p].sc.Scaled(o.Scale).N },
		cell: func(p int, seed uint64) []float64 {
			fc := sizeConfigs[p]
			sc := fc.sc.Scaled(o.Scale)
			queries := 50
			if sc.N < 100 {
				queries = sc.N / 2
			}
			n := float64(sc.N)

			// The three mechanisms answer the same pairs on the same topology;
			// query traffic never feeds back into the overhead categories.
			// CARD runs with D=3 (the paper's 95 %-success configuration).
			e := deploy(sc.engineNet(seed, engine.Static), card.Config{
				R: fc.R, MaxContactDist: fc.r, NoC: fc.NoC,
				Depth: 3, Method: card.EM, ValidatePeriod: 1,
			})
			net := e.Network()
			pairs := e.RandomPairs(queries, seed)

			var floodMsgs, borderMsgs, cardMsgs int64
			var scan topology.BFSResult
			for _, pr := range pairs {
				scan.Run(net.Graph(), pr.Src, -1)
				floodMsgs += flood.Search(net.Recorder(), &scan, pr.Dst, []int{-1}, true).Messages
			}

			// Bordercasting with QD1+QD2, zone radius = CARD's R: the engine's
			// own proactive substrate, for a fair comparison.
			bc := must(bordercast.New(net, e.Neighborhood(), bordercast.Config{Zone: fc.R, QD: bordercast.QD2}))
			for _, pr := range pairs {
				borderMsgs += bc.Query(net.Recorder(), pr.Src, pr.Dst).Messages
			}

			// One maintenance round so the overhead bar includes validation.
			e.Advance(1)
			overhead := float64(net.Totals().Sum(overheadCats...)) / n

			found := 0
			for _, pr := range pairs {
				res := e.Query(pr.Src, pr.Dst)
				cardMsgs += res.Messages
				if res.Found {
					found++
				}
			}
			return []float64{
				float64(floodMsgs) / n, float64(borderMsgs) / n, float64(cardMsgs) / n,
				overhead, 100 * float64(found) / float64(len(pairs)),
			}
		},
	}.table(o)
}
