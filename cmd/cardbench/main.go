// Command cardbench is the repository's benchmark: four workloads, the
// end-to-end metrics a cardsim user feels, and per-layer numbers from a
// traced replay of the engine's tick. See README.md beside this file.
//
//	go run ./cmd/cardbench                          # all four workloads, both kinds of metric
//	go run ./cmd/cardbench -workload city-5k -seed 2 -seconds 10 -trace 0
//	go run ./cmd/cardbench -out new.json && go run ./cmd/cardbench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cardbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Uint64("seed", 1, "seed of the world and of every traffic stream")
	seconds := fs.Float64("seconds", 10, "host seconds the measured window is sized for on the reference box")
	trace := fs.Int("trace", traceBoth, "0: end-to-end metrics only; 1: traced run, per-layer metrics only; -1: both")
	scale := fs.String("scale", "full", "full, or tiny for 150-node smoke runs")
	out := fs.String("out", "", "write the full results, with manifest, to this JSON file")
	spans := fs.String("spans", "", "write the replay phase's spans to this JSON-lines file")
	cmp := fs.Bool("compare", false, "compare two result files: cardbench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cardbench:", err)
		return 1
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files, got %d", fs.NArg()))
		}
		return runCompare(stdout, stderr, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if *scale != "full" && *scale != "tiny" {
		return fail(fmt.Errorf("unknown -scale %q (have full, tiny)", *scale))
	}
	if *trace < traceBoth || *trace > traceOn {
		return fail(fmt.Errorf("-trace %d outside -1..1", *trace))
	}
	if !(*seconds > 0) {
		return fail(fmt.Errorf("-seconds %g must be positive", *seconds))
	}
	defs := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return fail(err)
		}
		defs = []workloadDef{w}
	}

	opt := options{Seed: *seed, Seconds: *seconds, Trace: *trace, Tiny: *scale == "tiny", NProc: runtime.NumCPU()}
	if *spans != "" {
		opt.Spans = newSpanLog()
	}
	file := resultFile{Manifest: newManifest(opt, *scale)}
	self := newCheck("two in-process runs of a tiny world agree", selfCheck(*seed))
	valid := true
	for _, w := range defs {
		res, err := runWorkload(w, opt, self)
		if err != nil {
			return fail(err)
		}
		valid = valid && res.Valid
		file.Results = append(file.Results, res)
		printResult(stdout, res, *trace)
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if opt.Spans != nil {
		if err := writeSpans(*spans, opt.Spans.spans); err != nil {
			return fail(err)
		}
	}
	if !valid {
		fmt.Fprintln(stderr, "cardbench: an output check failed (see the checks above)")
		return 1
	}
	return 0
}

func runCompare(stdout, stderr io.Writer, oldPath, newPath string) int {
	worse, err := compareFiles(stdout, oldPath, newPath)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "cardbench:", err)
		return 2
	case worse:
		return 1
	}
	return 0
}

func compareFiles(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	old, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	new, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	return compareResults(w, old, new)
}

// driverLine is the one-object summary a benchmark driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric by name and unit, the sample counts and
// the checks, then the driver line: the end-to-end metrics under -trace 0,
// the per-layer ones under -trace 1, both otherwise.
func printResult(w io.Writer, res *result, trace int) {
	fmt.Fprintf(w, "== %s  seed %d  digest %s  valid %v\n", res.Workload, res.Seed, res.StateDigest, res.Valid)
	fmt.Fprintf(w, "   %s\n   model: %s\n", res.Manifest.Net, res.Manifest.Model)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	line := driverLine{Correct: res.Valid, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	table := func(defs []metricDef, values map[string]metric) {
		for _, d := range defs {
			m := values[d.Name]
			fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", d.Name, m.Value, m.Unit)
			line.Metrics[d.Name] = m
		}
	}
	if trace != traceOn {
		table(endToEnd, res.EndToEnd)
	}
	if trace != traceOff {
		table(perLayer, res.PerLayer)
	}
	tw.Flush()
	for _, ph := range res.Manifest.Phases {
		fmt.Fprintf(w, "   phase %s/%s: GOMAXPROCS %d, %g sim-s in %.3f host-s\n", ph.Arm, ph.Name, ph.GOMAXPROCS, ph.SimS, ph.HostS)
	}
	names := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprint(w, "   samples:")
	for _, k := range names {
		fmt.Fprintf(w, " %s=%d", k, res.Samples[k])
	}
	fmt.Fprintln(w)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(w, "   CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Fprintf(w, "%s\n", b)
}
