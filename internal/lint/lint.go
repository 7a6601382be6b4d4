// Package lint is cardlint: a static-analysis suite that enforces the
// repository's determinism contract at compile time.
//
// Every parallel path in the simulator (batch queries, maintenance
// rounds, workload ticks, sweep cells, dirty-set rounds) is pinned
// bit-identical serial-vs-sharded by runtime equivalence tests, but the
// contract those tests probe — counter-based xrand streams, no
// wall-clock or global RNG in sim code, goroutines only via
// internal/par, no order-sensitive map iteration — used to live in
// reviewers' heads. This package turns each clause into an analyzer:
//
//   - maprange: flags `for … range` over map-typed values in the
//     deterministic packages unless the body is provably
//     order-insensitive (key-collection followed by a sort) or the
//     statement carries a //cardlint:ordered annotation.
//   - purity: bans math/rand, crypto/rand, wall-clock reads
//     (time.Now/Since/Until) and environment/pid reads in sim packages;
//     cmd/* and examples/* are exempt and internal/experiments may read
//     the wall clock for its timing columns.
//   - gostmt: permits `go` statements and raw sync.Mutex / sync.RWMutex /
//     sync.WaitGroup only inside internal/par, keeping the worker pool
//     the single concurrency choke point.
//   - streamdiscipline: flags shared *xrand.Rand values captured by
//     func literals handed to par.Do/Workers/WorkersN (drawing from a
//     shared generator inside a worker races and breaks the
//     serial==parallel contract; only StreamSeed derivation is
//     read-only) and *xrand.Rand struct fields in deterministic
//     packages with no visible Reseed/StreamSeed/Derive discipline.
//
// Findings are suppressed with an annotation on the offending line or
// the line directly above:
//
//	//cardlint:<key> <reason>
//
// where <key> is the analyzer's suppression keyword (ordered, impure,
// parallel, stream) and <reason> is mandatory prose documenting why the
// flagged construct cannot perturb results. A bare annotation, an
// unknown key, and an annotation that suppresses nothing are themselves
// findings, so the suppression inventory stays honest.
//
// The framework is intentionally self-contained: it mirrors the shape
// of golang.org/x/tools/go/analysis (Analyzer, Pass, Report) on the
// standard library alone, loading type information from the compiler's
// export data via `go list -export`, so the module keeps its empty
// dependency graph. Its one driver is the meta-test in this package
// (TestRepoHonorsDeterminismContract), which runs the whole suite over
// ./... under `go test ./...` and fails on any unannotated finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one determinism-contract check.
type Analyzer struct {
	// Name identifies the analyzer in output.
	Name string
	// Doc is a one-line description.
	Doc string
	// Key is the suppression keyword accepted after "//cardlint:".
	Key string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass presents one typechecked package to an analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package's import path with any test-variant suffix
	// (" [pkg.test]") stripped.
	Path string
	// Scope classifies packages into contract tiers.
	Scope *Scope

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.analyzer.Name,
		Key:      p.analyzer.Key,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in file coordinates so it
// survives past the pass's FileSet.
type Diagnostic struct {
	// Analyzer names the check that produced the finding; directive
	// findings (bare/unknown/unused annotations) use "cardlint".
	Analyzer string
	// Key is the suppression keyword that would silence the finding;
	// empty for directive findings, which cannot be suppressed.
	Key     string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzers is the full cardlint suite in reporting order.
var Analyzers = []*Analyzer{
	MapRange,
	Purity,
	GoStmt,
	StreamDiscipline,
}
