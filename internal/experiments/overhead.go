package experiments

import (
	"fmt"

	"card/internal/card"
	"card/internal/manet"
	"card/internal/mobility"
	"card/internal/sweep"
)

// backtrackCat aliases the counter category used by Fig. 4 and Fig. 12.
const backtrackCat = manet.CatBacktrack

// selectionCats are the categories charged to contact selection.
var selectionCats = []manet.Category{manet.CatCSQ, manet.CatBacktrack}

// maintenanceCats are the categories charged to contact maintenance.
var maintenanceCats = []manet.Category{manet.CatValidate, manet.CatRecovery}

// overheadCats is the paper's §IV.B total: selection + maintenance.
var overheadCats = []manet.Category{
	manet.CatCSQ, manet.CatBacktrack, manet.CatValidate, manet.CatRecovery,
}

// TimeSeries is the averaged output of a mobile overhead run: one sample
// per window boundary.
type TimeSeries struct {
	// Times are the window end times in seconds (2, 4, ... horizon).
	Times []float64
	// Overhead is selection+maintenance control messages per node within
	// each window (Fig. 10/11).
	Overhead []float64
	// Backtrack is the backtracking share within each window (Fig. 12).
	Backtrack []float64
	// Maintenance is validate+recovery messages per node per window
	// (Fig. 13).
	Maintenance []float64
	// Contacts is the number of live contacts across all tables at each
	// window end (Fig. 13's companion series).
	Contacts []float64
}

// timeSimParams collects the knobs of a mobile run.
type timeSimParams struct {
	sc        Scenario
	cfg       card.Config
	horizon   float64 // total simulated seconds
	window    float64 // sampling window
	refreshDt float64 // topology refresh step
}

// runTimeSim executes one seeded mobile simulation: initial selection at
// t=0, topology refresh every refreshDt, one maintenance round per
// ValidatePeriod, counters sampled per window.
func runTimeSim(p timeSimParams, seed uint64) TimeSeries {
	net, err := p.sc.MobileNet(seed, mobility.DefaultRWP())
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	prot, err := NewCARD(net, p.cfg, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	cfg := prot.Config() // defaults filled
	prot.SelectAll(0)

	var ts TimeSeries
	snap := net.Totals()
	nextValidate := cfg.ValidatePeriod
	nextWindow := p.window
	n := float64(net.N())
	for t := p.refreshDt; t <= p.horizon+1e-9; t += p.refreshDt {
		net.RefreshAt(t)
		if t+1e-9 >= nextValidate {
			prot.MaintainAll(t)
			nextValidate += cfg.ValidatePeriod
		}
		if t+1e-9 >= nextWindow {
			d := net.Totals().DiffSince(snap)
			snap = net.Totals()
			ts.Times = append(ts.Times, nextWindow)
			ts.Overhead = append(ts.Overhead, float64(d.Sum(overheadCats...))/n)
			ts.Backtrack = append(ts.Backtrack, float64(d.Get(backtrackCat))/n)
			ts.Maintenance = append(ts.Maintenance, float64(d.Sum(maintenanceCats...))/n)
			ts.Contacts = append(ts.Contacts, float64(prot.TotalContacts()))
			nextWindow += p.window
		}
	}
	return ts
}

// averageSeries averages time series point-wise in slice order — the
// seed-aggregation every mobile figure uses.
func averageSeries(runs []TimeSeries) TimeSeries {
	seeds := len(runs)
	out := TimeSeries{Times: runs[0].Times}
	k := len(out.Times)
	out.Overhead = make([]float64, k)
	out.Backtrack = make([]float64, k)
	out.Maintenance = make([]float64, k)
	out.Contacts = make([]float64, k)
	for _, r := range runs {
		for i := 0; i < k; i++ {
			out.Overhead[i] += r.Overhead[i] / float64(seeds)
			out.Backtrack[i] += r.Backtrack[i] / float64(seeds)
			out.Maintenance[i] += r.Maintenance[i] / float64(seeds)
			out.Contacts[i] += r.Contacts[i] / float64(seeds)
		}
	}
	return out
}

// timeSeriesSweep runs one mobile time-series cell per (grid point, seed)
// through the generic sweep harness and averages per point: the shared
// engine behind the Fig. 10-13 grid declarations. Cells use the harness's
// (point-major, seed s+1) enumeration, so every point reproduces a direct
// serial loop over seeds 1..Seeds seed for seed (the reference lives in
// TestFigSweepsMatchDirectLoops).
func timeSeriesSweep(base card.Config, axes []sweep.Axis, seeds int, p timeSimParams) []TimeSeries {
	g := &sweep.Grid{Base: base, Axes: axes, Seeds: seeds}
	cells, err := sweep.RunCells(g, func(cfg sweep.CellConfig, _ []float64, _ int, seed uint64) TimeSeries {
		sp := p
		sp.cfg = cfg.Proto
		return runTimeSim(sp, seed)
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // static grid bug, not data
	}
	out := make([]TimeSeries, g.Points())
	for pt := range out {
		out[pt] = averageSeries(cells[pt*seeds : (pt+1)*seeds])
	}
	return out
}

// intAxis builds a sweep axis from integer values.
func intAxis(name string, vals []int) sweep.Axis {
	a := sweep.Axis{Name: name, Values: make([]float64, len(vals))}
	for i, v := range vals {
		a.Values[i] = float64(v)
	}
	return a
}

// fig10Base is the configuration printed under Fig. 10: R=3, r=10, D=1,
// validation every second.
func fig10Base() card.Config {
	return card.Config{R: 3, MaxContactDist: 10, Depth: 1, Method: card.EM, ValidatePeriod: 1}
}

// RunFig10 regenerates Fig. 10: overhead per node over time for NoC = 3,
// 4, 5, 7 (N=500, R=3, r=10) — a one-axis grid over the sweep harness.
func RunFig10(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	nocs := []int{3, 4, 5, 7}
	series := timeSeriesSweep(fig10Base(), []sweep.Axis{intAxis("NoC", nocs)}, o.Seeds,
		timeSimParams{sc: sc, horizon: 10, window: 2, refreshDt: 0.25})
	t := NewTable(
		fmt.Sprintf("Fig 10: overhead per node vs time by NoC (N=%d, R=3, r=10)", sc.N),
		"t(s)", "NoC=3", "NoC=4", "NoC=5", "NoC=7")
	for k, tm := range series[0].Times {
		t.Add(tm, series[0].Overhead[k], series[1].Overhead[k], series[2].Overhead[k], series[3].Overhead[k])
	}
	return t
}

// fig11Sweep runs the Fig. 11/12 parameter sweep (NoC=5, R=3, r varies)
// as a grid declaration and returns one TimeSeries per r.
func fig11Sweep(o Options, sc Scenario) ([]int, []TimeSeries) {
	rs := []int{8, 9, 10, 12, 15}
	base := fig10Base()
	base.NoC = 5
	series := timeSeriesSweep(base, []sweep.Axis{intAxis("r", rs)}, o.Seeds,
		timeSimParams{sc: sc, horizon: 10, window: 2, refreshDt: 0.25})
	return rs, series
}

// RunFig11 regenerates Fig. 11: total overhead per node over time for
// r = 8, 9, 10, 12, 15 (NoC=5, R=3).
func RunFig11(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	rs, series := fig11Sweep(o, sc)
	cols := []string{"t(s)"}
	for _, r := range rs {
		cols = append(cols, fmt.Sprintf("r=%d", r))
	}
	t := NewTable(
		fmt.Sprintf("Fig 11: total overhead per node vs time by r (N=%d, NoC=5, R=3)", sc.N),
		cols...)
	for k, tm := range series[0].Times {
		cells := []any{tm}
		for i := range rs {
			cells = append(cells, series[i].Overhead[k])
		}
		t.Add(cells...)
	}
	return t
}

// RunFig12 regenerates Fig. 12: backtracking overhead per node over time
// for the same sweep as Fig. 11.
func RunFig12(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	rs, series := fig11Sweep(o, sc)
	cols := []string{"t(s)"}
	for _, r := range rs {
		cols = append(cols, fmt.Sprintf("r=%d", r))
	}
	t := NewTable(
		fmt.Sprintf("Fig 12: backtracking per node vs time by r (N=%d, NoC=5, R=3)", sc.N),
		cols...)
	for k, tm := range series[0].Times {
		cells := []any{tm}
		for i := range rs {
			cells = append(cells, series[i].Backtrack[k])
		}
		t.Add(cells...)
	}
	return t
}

// RunFig13 regenerates Fig. 13: maintenance overhead per node and total
// selected contacts over a 20 s run (N=250, NoC=6, R=4, r=16) — the
// degenerate single-point grid.
func RunFig13(o Options) *Table {
	o.fill()
	sc := Table1Scenarios[1].Scaled(o.Scale) // 250 nodes, 710x710
	cfg := card.Config{R: 4, MaxContactDist: 16, NoC: 6, Depth: 1, Method: card.EM, ValidatePeriod: 1}
	ts := timeSeriesSweep(cfg, nil, o.Seeds,
		timeSimParams{sc: sc, horizon: 20, window: 2, refreshDt: 0.25})[0]
	t := NewTable(
		fmt.Sprintf("Fig 13: maintenance overhead and contact count over time (N=%d, NoC=6, R=4, r=16)", sc.N),
		"t(s)", "maintenance msgs/node", "total contacts")
	for k, tm := range ts.Times {
		t.Add(tm, ts.Maintenance[k], ts.Contacts[k])
	}
	return t
}

// fig14Cell measures one Fig. 14 cell: reachability bought and overhead
// paid after 10 s of maintained mobility. NoC 0 is the paper's
// no-contacts baseline: selection never runs, so overhead is zero and
// reachability is the bare neighborhood's.
func fig14Cell(sc Scenario, cfg card.Config, seed uint64) (sweep.Metrics, error) {
	skipSelect := cfg.NoC == 0
	if skipSelect {
		cfg.NoC = 1 // Validate rejects 0; the table stays empty regardless
	}
	net, err := sc.MobileNet(seed, mobility.DefaultRWP())
	if err != nil {
		return sweep.Metrics{}, err
	}
	prot, err := NewCARD(net, cfg, seed)
	if err != nil {
		return sweep.Metrics{}, err
	}
	if !skipSelect {
		prot.SelectAll(0)
		for t := 0.25; t <= 10+1e-9; t += 0.25 {
			net.RefreshAt(t)
			if isMultiple(t, cfg.ValidatePeriod) {
				prot.MaintainAll(t)
			}
		}
	}
	return sweep.Metrics{
		Reach:    prot.MeanReachability(cfg.Depth),
		Overhead: float64(net.Totals().Sum(overheadCats...)) / float64(net.N()),
	}, nil
}

// RunFig14 regenerates Fig. 14: the normalized reachability-vs-overhead
// trade-off as NoC grows 0..10 (R=3, r=10, 10 s mobile horizon) — a
// one-axis grid over the sweep harness's scalar pipeline.
func RunFig14(o Options) *Table {
	o.fill()
	sc := Scenario5.Scaled(o.Scale)
	nocs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	g := &sweep.Grid{Base: fig10Base(), Axes: []sweep.Axis{intAxis("NoC", nocs)}, Seeds: o.Seeds}
	res, err := g.Run(func(cfg sweep.CellConfig, _ []float64, _ int, seed uint64) (sweep.Metrics, error) {
		return fig14Cell(sc, cfg.Proto, seed)
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: fig14: %v", err))
	}
	maxReach, maxOver := 0.0, 0.0
	for _, p := range res.Points {
		if p.Metrics.Reach > maxReach {
			maxReach = p.Metrics.Reach
		}
		if p.Metrics.Overhead > maxOver {
			maxOver = p.Metrics.Overhead
		}
	}
	t := NewTable(
		fmt.Sprintf("Fig 14: normalized reachability vs overhead trade-off (N=%d, R=3, r=10)", sc.N),
		"NoC", "reach%", "overhead/node", "norm reach", "norm overhead")
	for i, noc := range nocs {
		p := res.Points[i].Metrics
		nr, no := 0.0, 0.0
		if maxReach > 0 {
			nr = p.Reach / maxReach
		}
		if maxOver > 0 {
			no = p.Overhead / maxOver
		}
		t.Add(noc, p.Reach, p.Overhead, nr, no)
	}
	return t
}

func isMultiple(t, period float64) bool {
	if period <= 0 {
		return false
	}
	k := t / period
	return absf(k-float64(int(k+0.5))) < 1e-6
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
