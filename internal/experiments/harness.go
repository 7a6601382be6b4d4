package experiments

import (
	"fmt"
	"strings"

	"card/internal/card"
	"card/internal/engine"
	"card/internal/stats"
	"card/internal/sweep"
)

// Options tunes how heavy an experiment run is.
type Options struct {
	// Seeds is the number of independent repetitions averaged per cell
	// (default 3).
	Seeds int
	// Scale shrinks every scenario, preserving node density (default 1 =
	// the paper's sizes). Benchmarks use smaller scales.
	Scale float64
}

func (o *Options) fill() {
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
}

// average is the package's one seed average: column-wise Σ v/seeds in
// seed order, the arithmetic every scalar and time-series figure prints.
func average(runs [][]float64) []float64 {
	out := make([]float64, len(runs[0]))
	for _, r := range runs {
		for i, v := range r {
			out[i] += v / float64(len(runs))
		}
	}
	return out
}

// means runs cell over a points x o.Seeds grid and returns every point's
// seed-averaged values. Like every figure here it fans out through
// sweep.Cells: a cell owns its whole simulation, so a figure is
// bit-identical at any GOMAXPROCS, and every point reproduces a direct
// serial loop over seeds 1..o.Seeds (TestFigSweepsMatchDirectLoops).
func means(o Options, points int, cell func(point int, seed uint64) []float64) [][]float64 {
	out := make([][]float64, points)
	for p, runs := range sweep.Cells(points, o.Seeds, cell) {
		out[p] = average(runs)
	}
	return out
}

// rows is the scalar harness: one table row per point — its label, then
// the seed average of each value cell measures.
type rows struct {
	title  string
	cols   []string
	points int
	label  func(point int) any
	cell   func(point int, seed uint64) []float64
}

func (r rows) table(o Options) *Table {
	t := NewTable(r.title, r.cols...)
	for p, vals := range means(o, r.points, r.cell) {
		row := []any{r.label(p)}
		for _, v := range vals {
			row = append(row, v)
		}
		t.Add(row...)
	}
	return t
}

// reachPoint is one column of a reachability figure: a configuration on a
// (scaled) scenario.
type reachPoint struct {
	label string
	sc    Scenario
	cfg   card.Config
}

// reachDist is the reachability of every node of one cell, or of one
// point's merged seeds.
type reachDist struct {
	hist *stats.Histogram
	mean stats.Welford
}

// reachCell is one (config, seed) reachability measurement: select contacts
// on a static field (none at NoC = 0), then record every node's
// reachability percentage.
func reachCell(pt reachPoint, seed uint64) reachDist {
	e := deploy(pt.sc.engineNet(seed, engine.Static), pt.cfg)
	d := reachDist{hist: stats.NewReachabilityHistogram()}
	for u := 0; u < e.Nodes(); u++ {
		v := e.Reachability(engine.NodeID(u), pt.cfg.Depth)
		d.hist.Add(v)
		d.mean.Add(v)
	}
	return d
}

// reachability aggregates reachCell over seeds for every point: summed
// histogram (counts normalized per seed when rendered) and merged mean.
func reachability(o Options, pts []reachPoint) []reachDist {
	out := make([]reachDist, len(pts))
	for p, runs := range sweep.Cells(len(pts), o.Seeds, func(p int, seed uint64) reachDist {
		return reachCell(pts[p], seed)
	}) {
		out[p].hist = stats.NewReachabilityHistogram()
		for _, d := range runs {
			out[p].hist.Merge(d.hist)
			out[p].mean.Merge(&d.mean)
		}
	}
	return out
}

// reachTable is the distribution harness: reachability histograms (one
// per point) in the paper's layout — rows are 5 % reachability bins,
// columns the points, cells the number of nodes (averaged per seed).
func reachTable(o Options, title string, pts []reachPoint) *Table {
	dists := reachability(o, pts)
	cols := []string{"Reach%"}
	for _, pt := range pts {
		cols = append(cols, pt.label)
	}
	t := NewTable(title, cols...)
	width := dists[0].hist.BinWidth()
	for bin := 0; bin < dists[0].hist.NumBins(); bin++ {
		row := []any{fmt.Sprintf("%g-%g", float64(bin)*width, float64(bin)*width+width)}
		for _, d := range dists {
			row = append(row, float64(d.hist.Bin(bin))/float64(o.Seeds))
		}
		t.Add(row...)
	}
	return t
}

// reachFig is a reachability figure on the workhorse scenario: one
// histogram column per point of the grid spec over base (see gridConfigs),
// headed by the grid's "axis=value" label unless label renames it; title's
// %d is the scaled network size.
type reachFig struct {
	title string
	base  card.Config
	spec  string
	label func(card.Config) string
}

func (f reachFig) table(o Options) *Table {
	sc := Scenario5.Scaled(o.Scale)
	labels, cfgs := gridConfigs(f.base, f.spec)
	pts := make([]reachPoint, len(cfgs))
	for i, cfg := range cfgs {
		if f.label != nil {
			labels[i] = f.label(cfg)
		}
		pts[i] = reachPoint{labels[i], sc, cfg}
	}
	return reachTable(o, fmt.Sprintf(f.title, sc.N), pts)
}

// The sampled columns of a TimeSeries.
const (
	// colOverhead is MessageCounts.Overhead per node within each window
	// (Fig. 10/11).
	colOverhead = iota
	// colBacktrack is the backtracking share within each window (Fig. 12).
	colBacktrack
	// colMaintenance is validate+recovery messages per node per window
	// (Fig. 13).
	colMaintenance
	// colContacts is the number of live contacts across all tables at each
	// window end (Fig. 13's companion series).
	colContacts
	numSeriesCols
)

// TimeSeries is the output of a mobile overhead run (or the seed average
// of several): one sample per window boundary.
type TimeSeries struct {
	// Times are the window end times in seconds (2, 4, ... horizon).
	Times []float64
	// Cols are the sampled series, indexed colOverhead .. colContacts.
	Cols [numSeriesCols][]float64
}

// Mobile runs refresh the topology every refreshDt seconds and sample
// their counters every window seconds.
const (
	refreshDt = 0.25
	window    = 2.0
)

// mobileRun is the package's one mobile time loop: after the initial
// selection (deploy), advance the engine refreshDt at a time up to horizon
// — its maintenance rounds fire on the ValidatePeriod boundaries — and hand
// every step's time to each (nil for runs that only read the final state).
func mobileRun(e *engine.Engine, horizon float64, each func(t float64)) {
	for e.Now()+refreshDt <= horizon+1e-9 {
		e.Advance(refreshDt)
		if each != nil {
			each(e.Now())
		}
	}
}

// runTimeSim executes one seeded random-waypoint simulation, its counters
// sampled per window.
func runTimeSim(sc Scenario, cfg card.Config, horizon float64, seed uint64) TimeSeries {
	e := deploy(sc.engineNet(seed, engine.RandomWaypoint), cfg)
	net := e.Network()
	var ts TimeSeries
	snap := net.Totals()
	nextWindow := window
	n := float64(net.N())
	mobileRun(e, horizon, func(t float64) {
		if t+1e-9 < nextWindow {
			return
		}
		d := engine.CountMessages(net.Totals().DiffSince(snap))
		snap = net.Totals()
		ts.Times = append(ts.Times, nextWindow)
		for c, v := range [numSeriesCols]float64{
			colOverhead:    float64(d.Overhead()) / n,
			colBacktrack:   float64(d.Backtrack) / n,
			colMaintenance: float64(d.Validation+d.Recovery) / n,
			colContacts:    float64(e.Protocol().TotalContacts()),
		} {
			ts.Cols[c] = append(ts.Cols[c], v)
		}
		nextWindow += window
	})
	return ts
}

// averageSeries averages time series point-wise in slice order — the
// seed-aggregation every mobile figure uses.
func averageSeries(runs []TimeSeries) TimeSeries {
	out := TimeSeries{Times: runs[0].Times}
	col := make([][]float64, len(runs))
	for c := range out.Cols {
		for i, r := range runs {
			col[i] = r.Cols[c]
		}
		out.Cols[c] = average(col)
	}
	return out
}

// gridConfigs materializes a sweep grid spec (sweep.ParseSpec's grammar;
// "" is the single-point grid) over base: one labelled configuration per
// point, in the sweep harness's enumeration — how Figs. 5-8 and 10-14
// declare their parameter axis.
func gridConfigs(base card.Config, spec string) (labels []string, cfgs []card.Config) {
	g := &sweep.Grid{Base: base}
	if spec != "" {
		g.Axes = must(sweep.ParseSpec(spec))
	}
	for p := 0; p < g.Points(); p++ {
		pt := g.Point(p)
		cfgs = append(cfgs, must(g.Config(pt)).Proto)
		var parts []string
		for i, a := range g.Axes {
			parts = append(parts, fmt.Sprintf("%s=%g", a.Name, pt[i]))
		}
		labels = append(labels, strings.Join(parts, ","))
	}
	return labels, cfgs
}

// seriesFig is the time-series harness: one mobile run per (grid point,
// seed), averaged per point, then the projected TimeSeries columns of
// every point side by side against time.
type seriesFig struct {
	title   string   // %d: the scaled network size
	sc      Scenario // unscaled
	base    card.Config
	spec    string // gridConfigs spec over base
	horizon float64
	project []int    // TimeSeries columns shown per point
	cols    []string // their headers; nil heads each point's one column with its grid label
}

// series returns the seed-averaged TimeSeries of every grid point.
func (f seriesFig) series(o Options) (labels []string, out []TimeSeries) {
	labels, cfgs := gridConfigs(f.base, f.spec)
	sc := f.sc.Scaled(o.Scale)
	for _, runs := range sweep.Cells(len(cfgs), o.Seeds, func(p int, seed uint64) TimeSeries {
		return runTimeSim(sc, cfgs[p], f.horizon, seed)
	}) {
		out = append(out, averageSeries(runs))
	}
	return labels, out
}

func (f seriesFig) table(o Options) *Table {
	labels, series := f.series(o)
	cols := append([]string{"t(s)"}, f.cols...)
	if f.cols == nil {
		cols = append(cols, labels...)
	}
	t := NewTable(fmt.Sprintf(f.title, f.sc.Scaled(o.Scale).N), cols...)
	for k, tm := range series[0].Times {
		row := []any{tm}
		for _, s := range series {
			for _, c := range f.project {
				row = append(row, s.Cols[c][k])
			}
		}
		t.Add(row...)
	}
	return t
}
