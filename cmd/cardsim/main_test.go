package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestExperimentFlagsAreRejectedNotClamped pins ROADMAP 2(d): -scale outside
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
