package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestPresetDocsSynthesized pins the -presets contract: every built-in
// preset carries the Doc line DescribeNet derives from its config
// (mobility model, N, area, churn), and the table is sorted by name.
func TestPresetDocsSynthesized(t *testing.T) {
	ps := Presets()
	for i, p := range ps {
		if p.Doc == "" || p.Doc != DescribeNet(p.Net) {
			t.Errorf("preset %s Doc %q, want synthesized %q", p.Name, p.Doc, DescribeNet(p.Net))
			continue
		}
		for _, want := range []string{
			p.Net.Mobility.String(),
			fmt.Sprintf("N=%d", p.Net.Nodes),
			fmt.Sprintf("%gx%gm", p.Net.Width, p.Net.Height),
		} {
			if !strings.Contains(p.Doc, want) {
				t.Errorf("preset %s Doc %q missing %q", p.Name, p.Doc, want)
			}
		}
		if churned := p.Net.ChurnMeanUp > 0; churned != strings.Contains(p.Doc, "churn up~") {
			t.Errorf("preset %s Doc %q misstates churn", p.Name, p.Doc)
		}
		if i > 0 && ps[i-1].Name >= p.Name {
			t.Errorf("Presets not sorted by name: %s before %s", ps[i-1].Name, p.Name)
		}
		if got, err := LookupPreset(p.Name); err != nil || got.Doc != p.Doc {
			t.Errorf("LookupPreset(%s) = %q, %v", p.Name, got.Doc, err)
		}
	}
	// The returned slice is the caller's: editing it leaves the table alone.
	ps[0].Doc = "hand-written lies"
	if Presets()[0].Doc == ps[0].Doc {
		t.Error("editing Presets()'s result reached the table")
	}
}

// TestScenarioPresetsRun smoke-tests the scenario-diversity presets at
// reduced scale: same mobility/churn configuration, fewer nodes, so the
// whole matrix stays test-budget cheap.
func TestScenarioPresetsRun(t *testing.T) {
	for _, name := range []string{"citywide-gm-5k", "rescue-groups-1k", "churn-2k"} {
		p, err := LookupPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		nc := p.Net
		nc.Nodes = 150
		nc.Width, nc.Height = 600, 600
		if nc.Groups > 0 {
			nc.Groups = 6
		}
		e, err := New(nc, p.Protocol)
		if err != nil {
			t.Fatalf("%s (scaled): %v", name, err)
		}
		e.SelectContacts()
		e.Advance(6)
		if e.Rounds() == 0 {
			t.Errorf("%s: no maintenance rounds fired", name)
		}
		res := mustBatch(t, e, "card", e.RandomPairs(40, 5))
		found := 0
		for _, r := range res {
			if r.Found {
				found++
			}
		}
		if found == 0 {
			t.Errorf("%s: no query succeeded", name)
		}
	}
}

func TestBuiltin10kPresetDensityMatches5k(t *testing.T) {
	p5, err := LookupPreset("citywide-rwp-5k")
	if err != nil {
		t.Fatal(err)
	}
	p10, err := LookupPreset("citywide-rwp-10k")
	if err != nil {
		t.Fatal(err)
	}
	d5 := float64(p5.Net.Nodes) / (p5.Net.Width * p5.Net.Height)
	d10 := float64(p10.Net.Nodes) / (p10.Net.Width * p10.Net.Height)
	if ratio := d10 / d5; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("10k preset density off by %.2fx from the 5k preset", ratio)
	}
	if p10.Net.Nodes != 10000 {
		t.Errorf("10k preset has %d nodes", p10.Net.Nodes)
	}
}
