package card

import (
	"os"
	"strings"
	"testing"

	"card/internal/engine"
	"card/internal/experiments"
	"card/internal/lint"
	"card/internal/scheme"
)

// TestReadmeListsEverything is the docs gate CI runs: README.md must name
// every registered workload preset and every experiment id (with its
// registry description), so the front door cannot silently fall behind
// the code. Names are matched as backquoted table cells, the way the
// README renders them.
func TestReadmeListsEverything(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md missing: %v", err)
	}
	readme := string(b)
	for _, p := range engine.Presets() {
		if !strings.Contains(readme, "`"+p.Name+"`") {
			t.Errorf("README.md does not list preset %q", p.Name)
		}
	}
	// Experiments are matched as whole table rows, id and description:
	// the registry's Doc is the one copy of each line.
	for _, id := range experiments.Names() {
		e, err := experiments.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if row := "| `" + id + "` | " + e.Doc + " |"; !strings.Contains(readme, row) {
			t.Errorf("README.md does not carry the registry row %q", row)
		}
	}
	// The discovery-scheme table must track the scheme registry.
	for _, s := range scheme.Names() {
		if !strings.Contains(readme, "`"+s+"`") {
			t.Errorf("README.md does not list discovery scheme %q", s)
		}
	}
	// The tooling table must track the lint suite the same way the
	// preset/experiment tables track their registries.
	for _, tool := range []string{"cardlint", "cardbench"} {
		if !strings.Contains(readme, "`"+tool+"`") {
			t.Errorf("README.md does not list tool %q", tool)
		}
	}
	for _, a := range lint.Analyzers {
		if !strings.Contains(readme, "`"+a.Name+"`") {
			t.Errorf("README.md does not list cardlint analyzer %q", a.Name)
		}
	}
}

// TestReadmeCommandsExist spot-checks that the flags the quickstart
// invokes are real: a stale README is as bad as none.
func TestReadmeCommandsExist(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	for _, preset := range []string{"citywide-rwp-1k", "rescue-groups-1k"} {
		if !strings.Contains(readme, preset) {
			t.Errorf("README quickstart lost preset %s", preset)
		}
		if _, err := engine.LookupPreset(preset); err != nil {
			t.Errorf("README names unknown preset: %v", err)
		}
	}
	if _, err := experiments.Lookup("fig7"); err != nil {
		t.Errorf("README names unknown experiment: %v", err)
	}
	for _, f := range []string{"-preset", "-presets", "-exp", "-list", "-churn", "-trace", "-scale", "-seeds", "-qps", "-zipf", "-sweep", "-scheme", "-loss", "-rangespread"} {
		if !strings.Contains(readme, f) {
			t.Errorf("README no longer documents cardsim flag %s", f)
		}
	}
}
