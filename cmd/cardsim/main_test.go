package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"card/internal/engine"
	"card/internal/sweep"
)

// TestUnknownPresetListsNames pins the operator-typo path: an unknown
// -preset must name every registered preset and exit 1, not fail
// opaquely.
func TestUnknownPresetListsNames(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "no-such-preset"}, &out, &errw)
	if code != 1 {
		t.Fatalf("run(-preset no-such-preset) = exit %d, want 1\nstderr: %s", code, errw.String())
	}
	msg := errw.String()
	if !strings.Contains(msg, `unknown -preset "no-such-preset"`) {
		t.Errorf("stderr does not name the bad preset:\n%s", msg)
	}
	for _, want := range []string{"citywide-rwp-1k", "citywide-rwp-100k", "metro-rwp-1m", "dense-sensor-field"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr does not list registered preset %q:\n%s", want, msg)
		}
	}
}

// TestUnknownSchemeListsNames pins the same contract for -scheme.
func TestUnknownSchemeListsNames(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "citywide-rwp-1k", "-scheme", "gossip"}, &out, &errw)
	if code != 1 {
		t.Fatalf("run(-scheme gossip) = exit %d, want 1\nstderr: %s", code, errw.String())
	}
	msg := errw.String()
	if !strings.Contains(msg, `unknown -scheme "gossip"`) {
		t.Errorf("stderr does not name the bad scheme:\n%s", msg)
	}
	for _, want := range []string{"card", "flood", "bordercast", "rendezvous"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr does not list registered scheme %q:\n%s", want, msg)
		}
	}
}

// TestBadFlagExitsTwo pins that malformed invocations (as opposed to
// unknown registry names) keep the usage exit code.
func TestBadFlagExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("run(-no-such-flag) = exit %d, want 2", code)
	}
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("run() with no args = exit %d, want 2", code)
	}
}

// TestListAndPresetsExitZero smoke-tests the two listing paths through
// the same entry point.
func TestListAndPresetsExitZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-presets"}, &out, &errw); code != 0 {
		t.Fatalf("run(-presets) = exit %d, want 0\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "metro-rwp-1m") {
		t.Errorf("-presets output does not list metro-rwp-1m:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("run(-list) = exit %d, want 0\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "fig3") {
		t.Errorf("-list output does not include fig3:\n%s", out.String())
	}
}

// TestNonFiniteFlagValuesExitTwo pins that "nan" and "inf" — which strconv
// parses happily — are malformed invocations, not values: before the check
// -tx nan printed a link-less network and exited 0, -loss / -rangespread /
// -churn nan were silently ignored, -horizon / -qps / -zipf nan silently
// fell back to the preset's defaults, and -horizon inf never returned.
func TestNonFiniteFlagValuesExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "no-such-file.tr", "-tx", "nan"},
		{"-trace", "no-such-file.tr", "-tx", "inf"},
		{"-preset", "citywide-rwp-1k", "-loss", "nan"},
		{"-preset", "citywide-rwp-1k", "-rangespread", "NaN"},
		{"-preset", "citywide-rwp-1k", "-churn", "nan,nan"},
		{"-preset", "citywide-rwp-1k", "-churn", "60,nan"},
		{"-preset", "citywide-rwp-1k", "-horizon", "nan"},
		{"-preset", "citywide-rwp-1k", "-horizon", "+Inf"},
		{"-preset", "citywide-rwp-1k", "-qps", "nan"},
		{"-preset", "citywide-rwp-1k", "-zipf", "nan"},
		{"-exp", "fig4", "-scale", "-inf"},
	} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = exit %d, want 2\nstderr: %s", args, code, errw.String())
		}
		if !strings.Contains(errw.String(), "bad -") {
			t.Errorf("run(%v) does not name the bad flag:\n%s", args, errw.String())
		}
	}
}

// TestOverflowingRangeSpreadExitsTwo pins that a finite -tx whose widest
// node range TxRange·(1+RangeSpread) overflows is a config error, not a
// panic from the link model.
func TestOverflowingRangeSpreadExitsTwo(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "t.tr")
	var sb strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&sb, "$node_(%d) set X_ %d.0\n$node_(%d) set Y_ 20.0\n", i, 10+20*i, i)
	}
	if err := os.WriteFile(tr, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run([]string{"-trace", tr, "-tx", "1e308", "-rangespread", "0.9"}, &out, &errw); code != 2 {
		t.Errorf("exit %d, want 2\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "RangeSpread") {
		t.Errorf("stderr does not name RangeSpread:\n%s", errw.String())
	}
}

// TestChurnBelowFloorExitsTwo pins the runaway-churn guard at the CLI: a
// mean under 1 ms made every refresh run one renewal draw per elapsed
// mean per node (1e-9 never finished). With -horizon 0 the run stops
// before the first refresh, so a build that accepts the schedule exits 0
// quickly instead of hanging; the guard exits 2 and names the floor.
func TestChurnBelowFloorExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "citywide-rwp-1k", "-churn", "1e-9,1e-9", "-qps", "0", "-horizon", "0", "-queries", "0"}, &out, &errw)
	if code != 2 {
		t.Errorf("exit %d, want 2\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "floor") {
		t.Errorf("stderr does not name the floor:\n%s", errw.String())
	}
}

// TestOversizedRadiusIsAnError pins the hostile-sweep path: R = 256
// overflows the view's uint8 distance column, which used to surface as a
// panic from inside engine.New. run() returning at all means no panic
// escaped; the message must name the bound, not print a goroutine trace.
func TestOversizedRadiusIsAnError(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "citywide-rwp-1k", "-sweep", "R=256;r=300", "-seeds", "1"}, &out, &errw)
	if code == 0 {
		t.Fatalf("run(-sweep R=256;r=300) = exit 0, want non-zero\nstdout: %s", out.String())
	}
	msg := errw.String()
	if !strings.Contains(msg, "R = 256, need <= 255") {
		t.Errorf("stderr does not name the radius bound:\n%s", msg)
	}
	if strings.Contains(msg, "goroutine") || strings.Contains(msg, "panic") {
		t.Errorf("stderr carries a goroutine trace:\n%s", msg)
	}
}

// TestSweepNoC0IsAnError pins that a NoC=0 sweep point exits 2 instead of
// printing a row: the engine reads NoC 0 as its default, so the row used
// to be a 5-contact run labelled NoC=0.
func TestSweepNoC0IsAnError(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "citywide-rwp-1k", "-sweep", "NoC=0,5", "-seeds", "1", "-horizon", "2", "-queries", "50"}, &out, &errw)
	if code != 2 {
		t.Fatalf("run(-sweep NoC=0,5) = exit %d, want 2\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "NoC = 0") {
		t.Errorf("stderr does not name the NoC = 0 refusal:\n%s", errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("a failed sweep printed its header:\n%s", out.String())
	}
}

// TestExperimentFlagsAreRejectedNotClamped pins ROADMAP 3(d): -scale outside
// (0, 1], -seeds < 1 and an unknown -format used to be clamped or
// defaulted — `-exp table1 -scale 2 -seeds 0 -format bogus` exited 0 after
// a full-size, 3-seed, text-format run. They are usage errors on the -exp
// and -sweep paths alike, and json exists only for sweeps.
func TestExperimentFlagsAreRejectedNotClamped(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table1", "-scale", "2"},
		{"-exp", "table1", "-scale", "0"},
		{"-exp", "table1", "-scale", "-0.5"},
		{"-exp", "table1", "-seeds", "0"},
		{"-exp", "table1", "-seeds", "-3"},
		{"-exp", "table1", "-format", "bogus"},
		{"-exp", "table1", "-format", "json"},
		{"-exp", "table1", "-scale", "2", "-seeds", "0", "-format", "bogus"},
		{"-sweep", "NoC=2", "-seeds", "0"},
		{"-sweep", "NoC=2", "-scale", "1.5"},
		{"-sweep", "NoC=2", "-format", "yaml"},
	} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = exit %d, want 2\nstderr: %s", args, code, errw.String())
		}
		if msg := errw.String(); !strings.Contains(msg, "bad -") || strings.Count(msg, "\n") != 1 {
			t.Errorf("run(%v) wants a one-line message naming the bad flag, got:\n%s", args, msg)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed a table before rejecting its flags:\n%s", args, out.String())
		}
	}
	// In range, every table format renders.
	for _, format := range []string{"text", "csv", "md", "plot"} {
		var out, errw strings.Builder
		if code := run([]string{"-exp", "smallworld", "-scale", "0.1", "-seeds", "1", "-format", format}, &out, &errw); code != 0 {
			t.Errorf("-format %s = exit %d\nstderr: %s", format, code, errw.String())
		}
	}
}

// TestListPrintsDescriptionsInPaperOrder pins -list as the one experiment
// index: `id  description` per line, the paper's artifacts first.
func TestListPrintsDescriptionsInPaperOrder(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("run(-list) = exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "table1 ") || !strings.Contains(lines[0], "Table 1") {
		t.Errorf("-list does not open with table1 and its description: %q", lines[0])
	}
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "scale ") {
		t.Errorf("-list does not close with the scale extension: %q", last)
	}
}

// runWithin runs args through run with a deadline, so an invocation that
// would simulate for hours fails the test instead of hanging it.
func runWithin(t *testing.T, d time.Duration, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	type result struct {
		code     int
		out, err string
	}
	done := make(chan result, 1)
	go func() {
		var out, errw strings.Builder
		c := run(args, &out, &errw)
		done <- result{c, out.String(), errw.String()}
	}()
	select {
	case r := <-done:
		return r.code, r.out, r.err
	case <-time.After(d):
		t.Fatalf("run(%v) did not return within %v", args, d)
		return 0, "", ""
	}
}

// TestRunawayAndNegativeFlagsExitTwo pins the hostile-input probes of the
// plan: invocations that asked for days of simulation (the first three
// hung), and four negative values that ran anyway — -queries -5 ran no
// queries, and -zipf -0.5, -qps -3 and -horizon -2 silently ran the
// preset's zipf 0.9, 100 qps and 30 s. So did flags the run never reads:
// -zipf or -scheme with no sustained phase, -tx without -trace (the run's
// header still printed the preset's 100 m radio), preset-run flags on an
// -exp run, experiment flags on a preset run and -list beside anything
// else all exited 0 with the flag dropped, and a NoC = 0 sweep point
// failed only after the other points' cells had run. Each now exits 2
// within a second, before printing anything, and names the flag or the
// bound it broke.
func TestRunawayAndNegativeFlagsExitTwo(t *testing.T) {
	const p = "-preset=citywide-rwp-1k"
	for _, c := range []struct {
		args []string
		want string // in the lower-cased message
	}{
		{[]string{p, "-horizon", "1e308"}, "horizon"},
		{[]string{p, "-qps", "1e12", "-horizon", "1"}, "qps"},
		{[]string{p, "-sweep", "NoC=2", "-seeds", "5", "-horizon", "1e9"}, "maintenance rounds"},
		{[]string{p, "-queries", "-5"}, "queries"},
		{[]string{p, "-zipf", "-0.5"}, "zipf"},
		{[]string{p, "-qps", "-3"}, "qps"},
		{[]string{p, "-horizon", "-2"}, "horizon"},
		{[]string{p, "-queries", "1000000000"}, "queries"},
		{[]string{"-exp", "table1", "-seeds", "1000000"}, "seeds"},
		{[]string{"-preset", "dense-sensor-field", "-zipf", "-0.5", "-queries", "1"}, "-zipf"},
		{[]string{p, "-qps", "0", "-zipf", "1.1"}, "-zipf"},
		{[]string{p, "-tx", "5"}, "-tx"},
		{[]string{"-exp", "table1", "-tx", "5"}, "-tx"},
		{[]string{"-sweep", "NoC=0,5", "-horizon", "60"}, "noc = 0"},
		{[]string{"-exp", "smallworld", "-scale", "0.1", "-seeds", "1", "-loss", "0.5", "-qps", "10", "-horizon", "5"}, "-horizon, -loss, -qps"},
		{[]string{"-preset", "dense-sensor-field", "-scheme", "flood", "-queries", "20", "-horizon", "2"}, "-scheme"},
		{[]string{"-preset", "dense-sensor-field", "-queries", "5", "-horizon", "1", "-scale", "0.5", "-seeds", "7", "-format", "csv", "-time"},
			"-format, -scale, -seeds, -time"},
		{[]string{"-sweep", "NoC=2", "-qps", "5"}, "-qps"},
		{[]string{"-list", "-exp", "fig3"}, "-exp"},
	} {
		start := time.Now()
		code, out, msg := runWithin(t, 10*time.Second, c.args...)
		if code != 2 {
			t.Errorf("run(%v) = exit %d, want 2\nstderr: %s", c.args, code, msg)
		}
		if !strings.Contains(strings.ToLower(msg), c.want) {
			t.Errorf("run(%v) does not name %q:\n%s", c.args, c.want, msg)
		}
		if out != "" {
			t.Errorf("run(%v) printed before refusing:\n%s", c.args, out)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("run(%v) took %v to refuse, want under 1 s", c.args, d)
		}
	}
}

// TestOldSentinelValuesExitTwo pins the deletion of the "-1 = preset
// default" sentinel: -1 is now a value like any other, and a negative loss,
// spread, horizon, rate or skew is refused by the config that owns it.
func TestOldSentinelValuesExitTwo(t *testing.T) {
	for _, f := range []string{"-loss", "-rangespread", "-horizon", "-qps", "-zipf"} {
		code, _, msg := runWithin(t, 10*time.Second, "-preset", "citywide-rwp-1k", f, "-1")
		if code != 2 {
			t.Errorf("%s -1 = exit %d, want 2\nstderr: %s", f, code, msg)
		}
		if !strings.Contains(strings.ToLower(msg), strings.TrimPrefix(f, "-")) {
			t.Errorf("%s -1 does not name the value it refused:\n%s", f, msg)
		}
	}
}

// TestSetFlagsOverrideThePreset pins the override rule: a flag that was
// set replaces the preset's field, even with the zero value, and a flag
// that was not set leaves the field as the preset wrote it.
func TestSetFlagsOverrideThePreset(t *testing.T) {
	plan := func(args ...string) plan {
		t.Helper()
		pl, err := parsePlan(args)
		if err != nil {
			t.Fatalf("parsePlan(%v): %v", args, err)
		}
		return pl
	}
	lossy := plan("-preset", "lossy-metro-10k")
	if lossy.preset.Net.Loss == 0 || lossy.traffic.QPS != 100 || lossy.traffic.ZipfS != 0.9 || lossy.horizon != 30 {
		t.Fatalf("unset flags changed the preset: loss %g, qps %g, zipf %g, horizon %g",
			lossy.preset.Net.Loss, lossy.traffic.QPS, lossy.traffic.ZipfS, lossy.horizon)
	}
	off := plan("-preset", "lossy-metro-10k", "-loss", "0", "-rangespread", "0", "-qps", "0", "-horizon", "0")
	if off.preset.Net.Loss != 0 || off.preset.Net.RangeSpread != 0 || off.traffic.QPS != 0 || off.horizon != 0 {
		t.Errorf("zero-valued flags did not override: loss %g, spread %g, qps %g, horizon %g",
			off.preset.Net.Loss, off.preset.Net.RangeSpread, off.traffic.QPS, off.horizon)
	}
	if !strings.Contains(off.preset.Doc, "tx 100m |") || strings.Contains(off.preset.Doc, "loss") {
		t.Errorf("header not re-described after the overlays: %q", off.preset.Doc)
	}
	if c := plan("-preset", "churn-2k", "-churn", "0,0"); c.preset.Net.ChurnMeanUp != 0 || c.preset.Net.ChurnMeanDown != 0 {
		t.Errorf("-churn 0,0 kept churn on: %+v", c.preset.Net)
	}
	// -qps on a traffic-less preset streams over its horizon, seeded from
	// -seed, and gives -zipf a phase to shape.
	tr := plan("-preset", "sparse-rescue", "-qps", "50", "-zipf", "0.5", "-seed", "9").traffic
	if tr.QPS != 50 || tr.ZipfS != 0.5 || tr.Duration != 60 || tr.Seed != 9^0xc0ffee {
		t.Errorf("-qps -zipf on a traffic-less preset: %+v", tr)
	}
	if tx := plan("-trace", "movements.tcl", "-tx", "70").preset.Net.TxRange; tx != 70 {
		t.Errorf("-tx on a -trace run: radio range %g, want 70", tx)
	}
}

// TestEveryPresetPlansUnderTheCeilings pins that the work ceilings sit
// above every preset's defaults, metro-rwp-1m included, for a preset run
// and for a sweep over it.
func TestEveryPresetPlansUnderTheCeilings(t *testing.T) {
	for _, p := range engine.Presets() {
		for _, args := range [][]string{
			{"-preset", p.Name},
			{"-preset", p.Name, "-sweep", "NoC=2..8..2;r=8..14..2", "-seeds", "5"},
		} {
			if _, err := parsePlan(args); err != nil {
				t.Errorf("parsePlan(%v): %v", args, err)
			}
		}
	}
}

// TestRunPrintsToItsWriter pins that preset and sweep runs print through
// the writer run is given, not os.Stdout.
func TestRunPrintsToItsWriter(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-preset", "citywide-rwp-1k", "-horizon", "0", "-queries", "20", "-qps", "0"},
			[]string{"preset citywide-rwp-1k: ", "queries: ", "wall clock: "}},
		{[]string{"-preset", "citywide-rwp-1k", "-sweep", "NoC=2,4", "-seeds", "1", "-horizon", "2", "-queries", "50"},
			[]string{"sweep over citywide-rwp-1k: 2 points x 1 seed(s)", "pareto frontier: "}},
	} {
		code, out, msg := runWithin(t, time.Minute, c.args...)
		if code != 0 {
			t.Fatalf("run(%v) = exit %d\nstderr: %s", c.args, code, msg)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("run(%v) stdout lacks %q:\n%s", c.args, w, out)
			}
		}
	}
}

// TestSweepHonoursSeed pins that -seed is a sweep's root seed: two seeds
// run different cells, and -seed 1 prints exactly the JSON of Grid.Run
// over the preset's network at Net.Seed = 1. The preset's own Seed is 1
// too, so a sweep that dropped -seed would pass the second check and fail
// the first.
func TestSweepHonoursSeed(t *testing.T) {
	sweepJSON := func(seed string) string {
		args := []string{"-preset", "citywide-rwp-1k", "-sweep", "NoC=2", "-seeds", "1",
			"-horizon", "2", "-queries", "20", "-format", "json", "-seed", seed}
		code, out, msg := runWithin(t, time.Minute, args...)
		if code != 0 {
			t.Fatalf("run(%v) = exit %d\nstderr: %s", args, code, msg)
		}
		// The JSON sits between the header line and the frontier line.
		return out[strings.Index(out, "{") : strings.LastIndex(out, "}")+1]
	}
	one, two := sweepJSON("1"), sweepJSON("2")
	if one == two {
		t.Errorf("-seed 1 and -seed 2 printed the same sweep:\n%s", one)
	}

	p, err := engine.LookupPreset("citywide-rwp-1k")
	if err != nil {
		t.Fatal(err)
	}
	axes, err := sweep.ParseSpec("NoC=2")
	if err != nil {
		t.Fatal(err)
	}
	p.Net.Seed = 1
	g := &sweep.Grid{Base: p.Protocol, Axes: axes, Seeds: 1}
	res, err := g.Run(sweep.EngineRunner{Net: p.Net, Horizon: 2, Queries: 20}.Run)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if one != string(want) {
		t.Errorf("-seed 1 sweep differs from Grid.Run at Net.Seed = 1:\n got %s\nwant %s", one, want)
	}
}
