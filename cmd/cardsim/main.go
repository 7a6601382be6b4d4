// Command cardsim regenerates the paper's tables and figures and runs the
// engine's workload presets.
//
// Usage (README.md's Quickstart has more):
//
//	cardsim -list                     # experiment ids and what each regenerates
//	cardsim -exp fig3 -seeds 5 -scale 0.5 -format csv
//	cardsim -presets                  # list workload presets
//	cardsim -preset citywide-rwp-1k -loss 0.1 -qps 200   # one preset end to end
//	cardsim -preset citywide-rwp-1k -format json         # ... as its engine.Report
//	cardsim -trace movements.tcl -tx 100 -horizon 60     # replay an ns-2 trace
//	cardsim -preset churn-2k -sweep "Method=EM,PM2;NoC=2,4" -seeds 5 -format csv
//
// A -sweep grid runs one isolated engine per (point, seed) cell over the
// preset's scenario (citywide-rwp-1k when -preset is omitted) and reports
// the overhead-vs-reachability trade-off per point, with Pareto-frontier
// configurations starred. Each cell resolves its -queries lookups over a
// 64-resource catalogue through one discovery scheme: card unless -scheme
// names another, and a Scheme sweep axis overrides it per point. -scheme
// also routes a preset run's sustained traffic.
//
// The arguments become one checked plan before anything runs. A flag that
// is set overrides the preset (-loss 0 turns loss off, -qps 0 the
// sustained phase); one that is not leaves it alone. Each value is checked
// by the config that owns it (engine.NetworkConfig, workload.Config,
// sweep.Grid, card.Config), and a run past a work ceiling exits 2. So does
// a set flag the run does not read. An experiment run reads only -exp,
// -format, -seeds, -scale and -time, and a preset run none of those but
// -format (text or json); a -sweep reads -format and -seeds but not -qps
// or -zipf. -tx needs -trace, and -zipf or -scheme on a preset run needs a
// sustained phase.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	proto "card/internal/card"
	"card/internal/engine"
	"card/internal/experiments"
	"card/internal/scheme"
	"card/internal/sweep"
	"card/internal/workload"
)

// Work ceilings, far above every preset's defaults (metro-rwp-1m asks 60
// advance steps and a 500-query batch) and far below what a typo such as
// -horizon 1e308 asks for; workload.Config.Validate bounds sustained traffic
// and sweep.MaxRounds the maintenance rounds summed over a sweep's cells.
const (
	advanceStep = 0.5       // seconds per Advance call of a preset run
	maxTicks    = 1_000_000 // advance steps of a preset run: -horizon / advanceStep
	maxQueries  = 1_000_000 // -queries: one preset run's batch, or one sweep cell's
	maxSeeds    = 1_000     // -seeds: repetitions per experiment cell or sweep point
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// plan is one checked cardsim invocation: a listing, experiments, a preset
// run or a sweep. run executes it without checking anything further.
type plan struct {
	list, presets, timing bool
	format                string
	exps                  []experiments.Experiment
	opts                  experiments.Options
	preset                engine.Preset // a preset or -trace run, or the scenario a sweep spans
	horizon               float64
	queries               int
	seed                  uint64
	traffic               workload.Config // QPS 0: no sustained phase
	grid                  *sweep.Grid     // a -sweep run over spec
	spec                  string
}

// refusal is a plan error printed as it is, with its own exit code: flag
// usage (2), or an unknown -preset or -scheme and the registered names (1).
type refusal struct {
	text string
	code int
}

func (r refusal) Error() string { return r.text }

// run is the testable body of main: it returns the exit code instead of
// calling os.Exit, and prints nothing until the whole plan is checked.
func run(args []string, stdout, stderr io.Writer) int {
	pl, err := parsePlan(args)
	var r refusal
	switch {
	case errors.As(err, &r):
		fmt.Fprint(stderr, r.text)
		return r.code
	case err != nil:
	case pl.list || pl.presets:
		if pl.list {
			for _, e := range append(experiments.Group("paper"), experiments.Group("ablation")...) {
				fmt.Fprintf(stdout, "%-13s %s\n", e.ID, e.Doc)
			}
		}
		if pl.presets {
			for _, p := range engine.Presets() {
				fmt.Fprintf(stdout, "%-20s %s\n", p.Name, p.Doc)
				fmt.Fprintf(stdout, "%-20s   %s\n", "", p.Description)
			}
		}
	case pl.grid != nil:
		err = runSweep(stdout, pl)
	case pl.preset.Name != "":
		err = runPreset(stdout, pl)
	default:
		for _, e := range pl.exps {
			start := time.Now()
			fmt.Fprint(stdout, render(e.Run(pl.opts), pl.format))
			if pl.timing {
				fmt.Fprintf(stderr, "[%s: %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "cardsim:", err)
		return 2
	}
	return 0
}

func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// parsePlan turns args into a checked plan. It simulates and prints
// nothing, so every refusal comes before any output.
func parsePlan(args []string) (plan, error) {
	var pl plan
	var usage strings.Builder
	fs := flag.NewFlagSet("cardsim", flag.ContinueOnError)
	fs.SetOutput(&usage)
	var (
		exp    = fs.String("exp", "", "experiment id, or 'all' / 'ablations' / 'everything'")
		format = fs.String("format", "text", "output format: text, csv, md or plot for -exp; text or json for a preset run; any of the five for -sweep")
		seeds  = fs.Int("seeds", 3, "independent repetitions per cell")
		scale  = fs.Float64("scale", 1, "scenario scale in (0,1]; 1 = paper-size networks")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		timing = fs.Bool("time", false, "print wall-clock time per experiment")

		presets   = fs.Bool("presets", false, "list workload presets and exit")
		preset    = fs.String("preset", "", "run one workload preset end to end")
		trace     = fs.String("trace", "", "replay an ns-2 setdest movement trace end to end")
		tx        = fs.Float64("tx", 100, "radio range in meters for -trace runs")
		churn     = fs.String("churn", "", "node churn: meanUp,meanDown seconds (e.g. 60,15; 0,0 = off; default: the preset's)")
		loss      = fs.Float64("loss", 0, "per-hop loss probability in [0,1) (default: the preset's)")
		spread    = fs.Float64("rangespread", 0, "per-node radio-range spread in [0,1); >0 makes links directed (default: the preset's)")
		queries   = fs.Int("queries", 500, "batched queries per preset run or sweep cell")
		horizon   = fs.Float64("horizon", 0, "simulated seconds before querying (default: the preset's)")
		seed      = fs.Uint64("seed", 1, "preset run seed")
		qps       = fs.Float64("qps", 0, "sustained query-traffic rate in queries/s, 0 = off (default: the preset's)")
		zipf      = fs.Float64("zipf", 0, "resource popularity skew for sustained traffic (default: the preset's)")
		sweepArg  = fs.String("sweep", "", `parameter-sweep grid over the preset, e.g. "NoC=1..10;r=6..20"`)
		schemeArg = fs.String("scheme", "", "discovery scheme for sweeps and sustained traffic: card, flood, ring, bordercast, rendezvous")
	)
	if err := fs.Parse(args); err != nil {
		return pl, refusal{usage.String(), 2}
	}
	// Each run kind reads its own flags; one set that the chosen run does
	// not read is refused, not ignored.
	kind := "a preset run"
	switch {
	case *list || *presets:
		kind = "a listing"
	case *sweepArg != "":
		kind = "a sweep"
	case *preset == "" && *trace == "":
		kind = "an experiment run"
	}
	reads := strings.Fields(map[string]string{
		"a listing":         "list presets",
		"an experiment run": "exp format seeds scale time",
		"a preset run":      "preset trace churn loss rangespread queries horizon seed qps zipf scheme format",
		"a sweep":           "sweep preset trace churn loss rangespread queries horizon seed seeds format scheme",
	}[kind])
	formats := map[string]string{
		"an experiment run": "text csv md plot",
		"a preset run":      "text json",
		"a sweep":           "text csv md plot json",
	}[kind]
	if *trace != "" {
		reads = append(reads, "tx")
	}
	// Which flags were set decides what overrides the preset. strconv
	// accepts "nan" and "inf", which slip past ordered range checks, so no
	// numeric flag may carry one.
	set := make(map[string]bool)
	var unread []string
	var bad error
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !slices.Contains(reads, f.Name) {
			unread = append(unread, "-"+f.Name)
		}
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && notFinite(v) && bad == nil {
			bad = fmt.Errorf("bad -%s %s: want a finite number", f.Name, f.Value)
		}
	})
	// The experiment and sweep flags are rejected, not clamped: a typo
	// must not cost a full-size default run that looks like an answer.
	scaleErr := experiments.CheckScale(*scale)
	switch {
	case bad != nil:
	case scaleErr != nil:
		bad = fmt.Errorf("bad -scale %g: %v", *scale, scaleErr)
	case *seeds < 1 || *seeds > maxSeeds:
		bad = fmt.Errorf("bad -seeds %d: want 1..%d", *seeds, maxSeeds)
	case *queries < 0 || *queries > maxQueries:
		bad = fmt.Errorf("bad -queries %d: want 0..%d per batch", *queries, maxQueries)
	case *horizon < 0:
		bad = fmt.Errorf("bad -horizon %g: want simulated seconds >= 0", *horizon)
	case len(unread) > 0:
		bad = fmt.Errorf("%s reads no %s", kind, strings.Join(unread, ", "))
	case set["format"] && !slices.Contains(strings.Fields(formats), *format):
		bad = fmt.Errorf("bad -format %q: %s prints %s", *format, kind, formats)
	}
	if bad != nil {
		return pl, bad
	}
	pl.list, pl.presets, pl.format, pl.timing = *list, *presets, *format, *timing
	if pl.list || pl.presets {
		return pl, nil
	}
	if *schemeArg != "" && !scheme.Known(*schemeArg) {
		return pl, refusal{fmt.Sprintf("cardsim: unknown -scheme %q; registered schemes:\n  %s\n",
			*schemeArg, strings.Join(scheme.Names(), "\n  ")), 1}
	}
	// A bare -sweep runs over the default citywide preset.
	if *sweepArg != "" && *preset == "" && *trace == "" {
		*preset = "citywide-rwp-1k"
	}
	if *preset == "" && *trace == "" {
		pl.opts = experiments.Options{Seeds: *seeds, Scale: *scale}
		switch *exp {
		case "":
			return pl, errors.New("-exp, -preset or -trace required (try -list / -presets)")
		case "all":
			pl.exps = experiments.Group("paper")
		case "ablations":
			pl.exps = experiments.Group("ablation")
		case "everything":
			pl.exps = append(experiments.Group("paper"), experiments.Group("ablation")...)
		default:
			e, err := experiments.Lookup(*exp)
			if err != nil {
				return pl, err
			}
			pl.exps = []experiments.Experiment{e}
		}
		return pl, nil
	}

	p, err := engine.LookupPreset(*preset)
	switch {
	case *preset != "" && err != nil:
		var names []string
		for _, p := range engine.Presets() {
			names = append(names, p.Name)
		}
		return pl, refusal{fmt.Sprintf("cardsim: unknown -preset %q; registered presets:\n  %s\n",
			*preset, strings.Join(names, "\n  ")), 1}
	case *preset != "" && *trace != "":
		return pl, errors.New("-preset and -trace are mutually exclusive")
	case *trace != "":
		p = engine.Preset{
			Name:        "trace:" + *trace,
			Description: "ad-hoc ns-2 setdest replay",
			Net:         engine.NetworkConfig{Mobility: engine.TraceReplay, TracePath: *trace, TxRange: *tx},
			// The citywide recipe suits the mid-size urban traces setdest
			// emits; tune via a registered preset for anything exotic.
			Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 2, ValidatePeriod: 2},
			Horizon:  30,
		}
	}
	if set["churn"] {
		upStr, downStr, found := strings.Cut(*churn, ",")
		up, err1 := strconv.ParseFloat(strings.TrimSpace(upStr), 64)
		down, err2 := strconv.ParseFloat(strings.TrimSpace(downStr), 64)
		if !found || err1 != nil || err2 != nil || notFinite(up) || notFinite(down) {
			return pl, fmt.Errorf("bad -churn %q: want meanUp,meanDown seconds", *churn)
		}
		p.Net.ChurnMeanUp, p.Net.ChurnMeanDown = up, down
	}
	if set["loss"] {
		p.Net.SetLoss(*loss)
	}
	if set["rangespread"] {
		p.Net.RangeSpread = *spread
	}
	if set["churn"] || set["loss"] || set["rangespread"] {
		p.Doc = engine.DescribeNet(p.Net) // keep the header honest about the overlays
	}
	if err := p.Net.Validate(); err != nil {
		return pl, err
	}
	pl.preset, pl.queries, pl.seed, pl.horizon = p, *queries, *seed, p.Horizon
	if set["horizon"] {
		pl.horizon = *horizon
	}
	if *sweepArg != "" {
		axes, err := sweep.ParseSpec(*sweepArg)
		if err != nil {
			return pl, err
		}
		g := &sweep.Grid{Base: p.Protocol, Scheme: *schemeArg, Axes: axes, Seeds: *seeds}
		if err := g.Validate(); err != nil {
			return pl, err
		}
		// Each cell advances -horizon at its point's validation period.
		er := sweep.EngineRunner{Net: p.Net, Horizon: pl.horizon, Queries: pl.queries}
		rounds := 0.0
		for i := 0; i < g.Points(); i++ {
			c, err := g.Config(g.Point(i))
			if err == nil {
				err = er.Check(&c)
			}
			if err != nil {
				return pl, err
			}
			rounds += float64(g.Seeds) * math.Floor(pl.horizon/c.Proto.ValidatePeriod)
		}
		if rounds > sweep.MaxRounds {
			return pl, fmt.Errorf("-sweep over -horizon %gs runs %g maintenance rounds in %d cells, max %d",
				pl.horizon, rounds, g.Cells(), sweep.MaxRounds)
		}
		pl.grid, pl.spec = g, *sweepArg
		return pl, nil
	}
	if steps := math.Ceil(pl.horizon / advanceStep); steps > maxTicks {
		return pl, fmt.Errorf("bad -horizon %g: %g advance steps of %gs, max %d", pl.horizon, steps, advanceStep, maxTicks)
	}
	tr := p.Traffic
	if set["qps"] {
		tr.QPS = *qps
	}
	if set["zipf"] {
		tr.ZipfS = *zipf
	}
	tr.Scheme = cmp.Or(*schemeArg, tr.Scheme)
	if tr.QPS == 0 && (set["zipf"] || set["scheme"]) {
		return pl, errors.New("-zipf and -scheme shape sustained traffic; this run has none (set -qps > 0)")
	}
	if tr.QPS != 0 {
		// A traffic-less preset enabled by -qps streams over its horizon.
		tr.Duration = cmp.Or(tr.Duration, p.Horizon, 10)
		tr.Seed = cmp.Or(tr.Seed, *seed^0xc0ffee)
		if err := tr.Validate(); err != nil {
			return pl, err
		}
	}
	pl.traffic = tr
	return pl, nil
}

// render prints a table in a (validated) -format.
func render(tab *experiments.Table, format string) string {
	switch format {
	case "csv":
		return tab.CSV()
	case "md":
		return tab.Markdown() + "\n"
	case "plot":
		return tab.Plot() + "\n"
	}
	return tab.Text() + "\n"
}

// runPreset builds the workload, advances it over its horizon, fans a
// query batch and reports what it saw; a sustained-traffic phase then
// keeps the clock running under query load and reports serving quantiles.
// The record is the engine's Report, printed through -format; the host
// times beside it (text only) are this caller's.
func runPreset(w io.Writer, pl plan) error {
	p, seed := pl.preset, pl.seed
	var wall [5]time.Duration // build, select, advance, batch, sustained
	start := time.Now()
	lap := func(i int) { wall[i], start = time.Since(start), time.Now() }
	e, err := p.New(seed)
	if err != nil {
		return err
	}
	lap(0)
	e.SelectContacts()
	lap(1)
	for e.Now() < pl.horizon {
		e.Advance(advanceStep)
	}
	lap(2)
	res, err := e.BatchQuery("card", e.RandomPairs(pl.queries, seed^0x9e3779b97f4a7c15))
	if err != nil {
		return err
	}
	lap(3)
	rep := e.Report(res)
	rep.Manifest.Preset, rep.Manifest.Doc = p.Name, cmp.Or(p.Doc, p.Description)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rep.Manifest.Revision = s.Value
			}
		}
	}
	if pl.traffic.QPS != 0 {
		start = time.Now()
		if rep.Sustained, err = e.RunWorkload(pl.traffic); err != nil {
			return err
		}
		lap(4)
		rep.Manifest.Scheme = rep.Sustained.Scheme
	}
	if pl.format == "json" {
		return writeJSON(w, rep)
	}
	writeText(w, rep, wall)
	return nil
}

// writeJSON prints v as indented JSON: encoding/json is the one
// serialization of a preset report and of a sweep result.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeText renders a preset run's report, with the host times the caller
// measured (wall: build, select, advance, batch, sustained).
func writeText(w io.Writer, r *engine.Report, wall [5]time.Duration) {
	ms := func(i int) time.Duration { return wall[i].Round(time.Millisecond) }
	fmt.Fprintf(w, "preset %s: %s\n", r.Manifest.Preset, r.Manifest.Doc)
	up := ""
	if r.Manifest.Net.ChurnMeanUp > 0 {
		up = fmt.Sprintf(" (%d up)", r.Up)
	}
	c := r.Census
	fmt.Fprintf(w, "topology: %d nodes%s, %d links, mean degree %.1f, %.0f%% in largest component\n",
		r.Nodes, up, c.Links, c.MeanDegree, 100*c.LargestComponentFrac)
	fmt.Fprintf(w, "after %gs simulated (%d maintenance rounds): reach(D=1) %.1f%%\n", r.SimTime, r.Rounds, r.ReachD1)
	b := r.Batch
	fmt.Fprintf(w, "queries: %d/%d found, %.1f msgs/query\n", b.Found, b.Queries, b.MsgsPerQuery)
	fmt.Fprintf(w, "traffic/node: %.1f total (", r.Total.PerNode)
	sep := ""
	for _, t := range r.Messages {
		fmt.Fprintf(w, "%s%s %.1f", sep, t.Name, t.PerNode)
		sep = ", "
	}
	fmt.Fprintf(w, ")\nwall clock: build %v, select %v, advance %v, %d queries %v\n", ms(0), ms(1), ms(2), b.Queries, ms(3))
	rep := r.Sustained
	if rep == nil {
		return
	}
	fmt.Fprintf(w, "sustained traffic [%s]: %d queries over %gs @ %g qps (zipf %g, %d resources x%d)\n",
		rep.Scheme, rep.Queries, rep.Horizon, rep.Config.QPS,
		rep.Config.ZipfS, rep.Config.Resources, rep.Config.Replicas)
	offline := ""
	if rep.SrcDown > 0 {
		offline = fmt.Sprintf(" (%d offline sources)", rep.SrcDown)
	}
	fmt.Fprintf(w, "  success %.1f%%%s, msgs/query p50 %.0f p95 %.0f p99 %.0f (mean %.1f)\n",
		rep.SuccessPct, offline, rep.Messages.P50, rep.Messages.P95, rep.Messages.P99,
		rep.Messages.Mean)
	fmt.Fprintf(w, "  hops p50 %.0f p95 %.0f; trailing window: success %.1f%%, msgs p95 %.0f; wall %v\n",
		rep.Hops.P50, rep.Hops.P95, rep.WindowSuccessPct, rep.WindowMessages.P95, ms(4))
}

// runSweep runs one isolated engine per (point, seed) cell of the grid on
// the preset's scenario and renders the per-point table (Pareto frontier
// starred) through -format; "json" also carries the raw per-cell metrics.
func runSweep(w io.Writer, pl plan) error {
	p, g := pl.preset, pl.grid
	p.Net.Seed = pl.seed // the sweep's root seed
	er := sweep.EngineRunner{Net: p.Net, Horizon: pl.horizon, Queries: pl.queries}
	start := time.Now()
	res, err := g.Run(er.Run)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Fprintf(w, "sweep over %s: %d points x %d seed(s) = %d cells, horizon %gs, %d queries/cell\n",
		p.Name, g.Points(), g.Seeds, g.Cells(), pl.horizon, pl.queries)
	if pl.format == "json" {
		if err := writeJSON(w, res); err != nil {
			return err
		}
	} else {
		title := fmt.Sprintf("Sweep %s over %s (* = Pareto frontier)", pl.spec, p.Name)
		fmt.Fprint(w, render(experiments.SweepTable(title, res), pl.format))
	}
	fmt.Fprintf(w, "pareto frontier: %d of %d points; wall %v\n",
		len(res.Pareto()), g.Points(), wall.Round(time.Millisecond))
	return nil
}
