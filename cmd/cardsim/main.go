// Command cardsim regenerates the paper's tables and figures and runs the
// engine's workload presets.
//
// Usage:
//
//	cardsim -exp fig7                 # one experiment, aligned text
//	cardsim -exp all -format md       # every paper experiment, markdown
//	cardsim -exp ablations            # the design-choice ablations
//	cardsim -list                     # experiment ids and what each regenerates
//	cardsim -exp fig3 -seeds 5 -scale 0.5 -format csv
//
//	cardsim -presets                  # list workload presets
//	cardsim -preset citywide-rwp-1k   # run one preset end to end
//	cardsim -preset sparse-rescue -queries 1000 -horizon 30
//	cardsim -preset citywide-rwp-1k -churn 60,15   # add node churn
//	cardsim -preset citywide-rwp-1k -loss 0.1 -rangespread 0.5   # lossy directed links
//	cardsim -preset citywide-rwp-1k -qps 200 -zipf 1.1   # sustained traffic
//	cardsim -trace movements.tcl -tx 100 -horizon 60   # replay an ns-2 trace
//
//	cardsim -preset citywide-rwp-1k -sweep "NoC=2..8..2;r=8..14..2"
//	cardsim -preset churn-2k -sweep "Method=EM,PM2;NoC=2,4" -seeds 5 -format csv
//	cardsim -sweep "NoC=1..4" -scheme rendezvous    # scheme cells on the default preset
//	cardsim -preset citywide-rwp-1k -sweep "Scheme=card,rendezvous;NoC=2,4"
//
// A -sweep grid runs one isolated engine per (point, seed) cell over the
// preset's scenario (citywide-rwp-1k when -preset is omitted) and reports
// the overhead-vs-reachability trade-off per point, with Pareto-frontier
// configurations starred. -scheme routes every cell's (and every
// sustained-traffic run's) queries through the named discovery scheme;
// a Scheme sweep axis overrides it per point.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
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

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// presetNames returns the registered preset names, sorted — the "did you
// mean" list printed when -preset misses the registry.
func presetNames() []string {
	ps := engine.Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// run is the testable body of main: it parses args on its own FlagSet and
// returns the process exit code instead of calling os.Exit, so the unit
// tests can drive the flag-parsing path directly. Unknown -preset and
// -scheme values print the registered names and exit 1 (actionable
// operator typos); malformed invocations keep exit 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cardsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "", "experiment id, or 'all' / 'ablations' / 'everything'")
		format = fs.String("format", "text", "output format: text, csv, md, plot (json with -sweep)")
		seeds  = fs.Int("seeds", 3, "independent repetitions per cell")
		scale  = fs.Float64("scale", 1, "scenario scale in (0,1]; 1 = paper-size networks")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		timing = fs.Bool("time", false, "print wall-clock time per experiment")

		presets   = fs.Bool("presets", false, "list workload presets and exit")
		preset    = fs.String("preset", "", "run one workload preset end to end")
		trace     = fs.String("trace", "", "replay an ns-2 setdest movement trace end to end")
		tx        = fs.Float64("tx", 100, "radio range in meters for -trace runs")
		churn     = fs.String("churn", "", "add node churn to the run: meanUp,meanDown seconds (e.g. 60,15)")
		loss      = fs.Float64("loss", -1, "per-hop loss probability in [0,1) (-1 = preset default)")
		spread    = fs.Float64("rangespread", -1, "per-node radio-range spread in [0,1); >0 makes links directed (-1 = preset default)")
		queries   = fs.Int("queries", 500, "batched queries per preset run")
		horizon   = fs.Float64("horizon", -1, "simulated seconds before querying (-1 = preset default)")
		seed      = fs.Uint64("seed", 1, "preset run seed")
		qps       = fs.Float64("qps", -1, "sustained query-traffic rate in queries/s (-1 = preset default, 0 = off)")
		zipf      = fs.Float64("zipf", -1, "resource popularity skew for sustained traffic (-1 = preset default)")
		sweepArg  = fs.String("sweep", "", `parameter-sweep grid over the preset, e.g. "NoC=1..10;r=6..20"`)
		schemeArg = fs.String("scheme", "", "discovery scheme for sweeps and sustained traffic: card, flood, ring, bordercast, rendezvous")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// strconv accepts "nan" and "inf", and NaN then slips through every
	// range check downstream (-loss nan compares false against both
	// bounds; -horizon inf never ends), so no numeric flag may carry one.
	var badFlag string
	fs.Visit(func(f *flag.Flag) {
		if v, ok := f.Value.(flag.Getter).Get().(float64); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			badFlag = fmt.Sprintf("bad -%s %s: want a finite number", f.Name, f.Value)
		}
	})
	// The experiment and sweep flags are rejected, not clamped: a typo
	// must not cost a full-size default run that looks like an answer.
	switch {
	case badFlag != "":
	case !(*scale > 0 && *scale <= 1):
		badFlag = fmt.Sprintf("bad -scale %g: want a factor in (0, 1]", *scale)
	case *seeds < 1:
		badFlag = fmt.Sprintf("bad -seeds %d: want at least 1", *seeds)
	case !validFormat(*format, *sweepArg != ""):
		badFlag = fmt.Sprintf("bad -format %q: want text, csv, md or plot (json with -sweep)", *format)
	}
	if badFlag != "" {
		fmt.Fprintln(stderr, "cardsim:", badFlag)
		return 2
	}

	everything := append(experiments.Group("paper"), experiments.Group("ablation")...)
	if *list {
		for _, e := range everything {
			fmt.Fprintf(stdout, "%-13s %s\n", e.ID, e.Doc)
		}
		return 0
	}
	if *presets {
		for _, p := range engine.Presets() {
			fmt.Fprintf(stdout, "%-20s %s\n", p.Name, p.Doc)
			fmt.Fprintf(stdout, "%-20s   %s\n", "", p.Description)
		}
		return 0
	}
	if *schemeArg != "" && !scheme.Known(*schemeArg) {
		fmt.Fprintf(stderr, "cardsim: unknown -scheme %q; registered schemes:\n", *schemeArg)
		for _, n := range scheme.Names() {
			fmt.Fprintf(stderr, "  %s\n", n)
		}
		return 1
	}
	if *preset != "" {
		if _, err := engine.LookupPreset(*preset); err != nil {
			fmt.Fprintf(stderr, "cardsim: unknown -preset %q; registered presets:\n", *preset)
			for _, n := range presetNames() {
				fmt.Fprintf(stderr, "  %s\n", n)
			}
			return 1
		}
	}
	// A bare -sweep runs over the default citywide preset.
	if *sweepArg != "" && *preset == "" && *trace == "" {
		*preset = "citywide-rwp-1k"
	}
	if *preset != "" || *trace != "" {
		p, err := resolveWorkload(*preset, *trace, *tx, *churn, *loss, *spread)
		if err == nil {
			if *sweepArg != "" {
				if *qps >= 0 || *zipf >= 0 {
					err = fmt.Errorf("-qps/-zipf (sustained traffic) do not compose with -sweep; sweep cells measure batched queries")
				} else {
					err = runSweep(p, *sweepArg, *schemeArg, *seeds, *queries, *horizon, *seed, *format)
				}
			} else {
				err = runPreset(p, *queries, *horizon, *seed, resolveTraffic(p, *qps, *zipf, *schemeArg))
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "cardsim:", err)
			return 2
		}
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "cardsim: -exp, -preset or -trace required (try -list / -presets)")
		return 2
	}

	var exps []experiments.Experiment
	switch *exp {
	case "all":
		exps = experiments.Group("paper")
	case "ablations":
		exps = experiments.Group("ablation")
	case "everything":
		exps = everything
	default:
		e, err := experiments.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(stderr, "cardsim:", err)
			return 2
		}
		exps = []experiments.Experiment{e}
	}

	opts := experiments.Options{Seeds: *seeds, Scale: *scale}
	for _, e := range exps {
		start := time.Now()
		fmt.Fprint(stdout, render(e.Run(opts), *format))
		if *timing {
			fmt.Fprintf(stderr, "[%s: %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}

// validFormat reports whether -format names a rendering; json carries a
// sweep's raw cells and exists only there.
func validFormat(format string, sweep bool) bool {
	switch format {
	case "text", "csv", "md", "plot":
		return true
	}
	return format == "json" && sweep
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

// resolveWorkload turns the -preset / -trace / -churn / -loss /
// -rangespread flags into one runnable Preset: a registered preset by
// name, or an ad-hoc trace-replay scenario, optionally overlaid with a
// churn schedule and link-layer overrides (-1 keeps the preset's values;
// 0 explicitly turns the feature off).
func resolveWorkload(preset, trace string, tx float64, churn string, loss, spread float64) (engine.Preset, error) {
	var p engine.Preset
	switch {
	case preset != "" && trace != "":
		return p, fmt.Errorf("-preset and -trace are mutually exclusive")
	case trace != "":
		p = engine.Preset{
			Name:        "trace:" + trace,
			Description: "ad-hoc ns-2 setdest replay",
			Net:         engine.NetworkConfig{Mobility: engine.TraceReplay, TracePath: trace, TxRange: tx},
			// The citywide recipe suits the mid-size urban traces setdest
			// emits; tune via a registered preset for anything exotic.
			Protocol: proto.Config{R: 2, MaxContactDist: 10, NoC: 6, Depth: 2, ValidatePeriod: 2},
			Horizon:  30,
		}
	default:
		var err error
		if p, err = engine.LookupPreset(preset); err != nil {
			return p, err
		}
	}
	if churn != "" {
		upStr, downStr, found := strings.Cut(strings.TrimSpace(churn), ",")
		up, err1 := strconv.ParseFloat(strings.TrimSpace(upStr), 64)
		down, err2 := strconv.ParseFloat(strings.TrimSpace(downStr), 64)
		if !found || err1 != nil || err2 != nil || !(up > 0) || !(down > 0) { // !(x > 0) also catches NaN
			return p, fmt.Errorf("bad -churn %q: want meanUp,meanDown seconds, both > 0", churn)
		}
		p.Net.ChurnMeanUp, p.Net.ChurnMeanDown = up, down
		p.Doc = engine.DescribeNet(p.Net) // keep the header honest about the overlay
	}
	if loss >= 0 {
		if loss >= 1 {
			return p, fmt.Errorf("bad -loss %g: want a probability in [0, 1)", loss)
		}
		p.Net.Loss = loss
		p.Doc = engine.DescribeNet(p.Net)
	}
	if spread >= 0 {
		if spread >= 1 {
			return p, fmt.Errorf("bad -rangespread %g: want a fraction in [0, 1)", spread)
		}
		p.Net.RangeSpread = spread
		p.Doc = engine.DescribeNet(p.Net)
	}
	return p, nil
}

// resolveTraffic overlays the -qps/-zipf flags on the preset's suggested
// sustained-traffic shape. qps 0 disables the phase outright; qps > 0 on a
// traffic-less preset enables it with the workload defaults.
func resolveTraffic(p engine.Preset, qps, zipf float64, schemeName string) workload.Config {
	tr := p.Traffic
	switch {
	case qps == 0:
		tr.QPS = 0
	case qps > 0:
		tr.QPS = qps
	}
	if zipf >= 0 {
		tr.ZipfS = zipf
	}
	if schemeName != "" {
		tr.Scheme = schemeName
	}
	return tr
}

// runPreset builds the workload, advances it over its horizon, fans a
// query batch, and reports topology, reachability, traffic and wall-clock
// numbers — the quickest way to feel a workload's scale. A non-zero
// traffic config then keeps the clock running under sustained query load
// and reports the serving-style quantiles.
func runPreset(p engine.Preset, queries int, horizon float64, seed uint64, traffic workload.Config) error {
	if horizon < 0 {
		horizon = p.Horizon
	}
	if p.Doc != "" {
		fmt.Printf("preset %s: %s\n", p.Name, p.Doc)
	} else {
		fmt.Printf("preset %s: %s\n", p.Name, p.Description)
	}

	start := time.Now()
	e, err := p.New(seed)
	if err != nil {
		return err
	}
	build := time.Since(start)

	start = time.Now()
	e.SelectContacts()
	sel := time.Since(start)

	start = time.Now()
	if horizon > 0 {
		const step = 0.5
		for e.Now() < horizon {
			e.Advance(step)
		}
	}
	adv := time.Since(start)

	start = time.Now()
	pairs := e.RandomPairs(queries, seed^0x9e3779b97f4a7c15)
	res := e.BatchQuery(pairs)
	q := time.Since(start)

	found := 0
	var msgs int64
	for _, r := range res {
		if r.Found {
			found++
		}
		msgs += r.Messages
	}
	c := e.Network().Graph().ComputeCensus()
	m := e.Messages()
	churnNote := ""
	if e.Network().HasChurn() {
		churnNote = fmt.Sprintf(" (%d up)", e.UpNodes())
	}
	fmt.Printf("topology: %d nodes%s, %d links, mean degree %.1f, %.0f%% in largest component\n",
		e.Nodes(), churnNote, c.Links, c.MeanDegree, 100*c.LargestComponentFrac)
	fmt.Printf("after %ss simulated (%d maintenance rounds): reach(D=1) %.1f%%\n",
		trimSeconds(e.Now()), e.Rounds(), e.MeanReachability(1))
	fmt.Printf("queries: %d/%d found, %.1f msgs/query\n", found, len(res), avg(msgs, len(res)))
	fmt.Printf("traffic/node: %.1f total (selection %d, validation %d, query %d)\n",
		m.TotalPerNode, m.Selection, m.Validation, m.Query)
	fmt.Printf("wall clock: build %v, select %v, advance %v, %d queries %v\n",
		build.Round(time.Millisecond), sel.Round(time.Millisecond),
		adv.Round(time.Millisecond), len(res), q.Round(time.Millisecond))

	if traffic.QPS > 0 {
		if traffic.Duration <= 0 {
			traffic.Duration = p.Horizon
			if traffic.Duration <= 0 {
				traffic.Duration = 10
			}
		}
		if traffic.Seed == 0 {
			traffic.Seed = seed ^ 0xc0ffee
		}
		start = time.Now()
		rep, err := e.RunWorkload(traffic)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Printf("sustained traffic [%s]: %d queries over %ss @ %g qps (zipf %g, %d resources x%d)\n",
			rep.Scheme, rep.Queries, trimSeconds(rep.Horizon), rep.Config.QPS,
			rep.Config.ZipfS, rep.Config.Resources, rep.Config.Replicas)
		offline := ""
		if rep.SrcDown > 0 {
			offline = fmt.Sprintf(" (%d offline sources)", rep.SrcDown)
		}
		fmt.Printf("  success %.1f%%%s, msgs/query p50 %.0f p95 %.0f p99 %.0f (mean %.1f)\n",
			rep.SuccessPct, offline, rep.Messages.P50, rep.Messages.P95, rep.Messages.P99,
			rep.Messages.Mean)
		fmt.Printf("  hops p50 %.0f p95 %.0f; trailing window: success %.1f%%, msgs p95 %.0f; wall %v\n",
			rep.Hops.P50, rep.Hops.P95, rep.WindowSuccessPct, rep.WindowMessages.P95,
			wall.Round(time.Millisecond))
	}
	return nil
}

// runSweep spans the -sweep grid over the resolved workload: every
// (point, seed) cell is one isolated engine run on the preset's scenario
// with the point's protocol tuning, measured over -horizon simulated
// seconds and a -queries batch. The per-point table (Pareto frontier
// starred) renders through -format; "json" additionally carries the raw
// per-cell metrics.
func runSweep(p engine.Preset, spec, schemeName string, seeds, queries int, horizon float64, seed uint64, format string) error {
	axes, err := sweep.ParseSpec(spec)
	if err != nil {
		return err
	}
	if horizon < 0 {
		horizon = p.Horizon
	}
	g := &sweep.Grid{Base: p.Protocol, Scheme: schemeName, Axes: axes, Seeds: seeds}
	if err := g.Validate(); err != nil {
		return err
	}
	er := sweep.EngineRunner{Net: p.Net, Horizon: horizon, Queries: queries, Seed: seed}
	fmt.Printf("sweep over %s: %d points x %d seed(s) = %d cells, horizon %gs, %d queries/cell\n",
		p.Name, g.Points(), g.Seeds, g.Cells(), horizon, queries)
	start := time.Now()
	res, err := g.Run(er.Run)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	title := fmt.Sprintf("Sweep %s over %s (* = Pareto frontier)", spec, p.Name)
	if format == "json" {
		b, err := res.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(render(experiments.SweepTable(title, res), format))
	}
	front := res.Pareto()
	fmt.Printf("pareto frontier: %d of %d points; wall %v\n",
		len(front), g.Points(), wall.Round(time.Millisecond))
	return nil
}

func avg(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func trimSeconds(s float64) string { return fmt.Sprintf("%g", s) }
