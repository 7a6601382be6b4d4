package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"card/internal/lint"
	"card/internal/lint/linttest"
)

// TestRepoHonorsDeterminismContract runs the full cardlint suite over
// every package in the module and fails on any unannotated finding.
// This is the enforcement point: a new map range, wall-clock read,
// stray goroutine or undisciplined stored generator anywhere in sim
// code breaks the build until it is fixed or given a reasoned
// //cardlint: annotation.
func TestRepoHonorsDeterminismContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds export data for the whole module")
	}
	root := linttest.ModuleRoot(t)
	diags, err := lint.Check(root, nil, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix them or annotate with //cardlint:<key> <reason>", len(diags))
	}
}

// TestMetaCatchesSeededViolation proves the zero-findings assertion
// above has teeth: the same suite, pointed at a fixture package with
// deliberate unannotated violations, must report them.
func TestMetaCatchesSeededViolation(t *testing.T) {
	root := linttest.ModuleRoot(t)
	dir := filepath.Join(root, "internal", "lint", "testdata", "src", "seeded")
	pkg, err := lint.LoadDir(root, dir, "fixture/seeded")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunPackage(fixtureScope, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.Path, lint.Analyzers)
	var gotMap, gotClock bool
	for _, d := range diags {
		if strings.Contains(d.Message, "range over map") {
			gotMap = true
		}
		if strings.Contains(d.Message, "time.Now") {
			gotClock = true
		}
	}
	if !gotMap || !gotClock {
		t.Fatalf("seeded violations not caught (map=%v clock=%v); findings: %v", gotMap, gotClock, diags)
	}
}
