package lint

import "strings"

// Class is a package's tier under the determinism contract.
type Class int

const (
	// ClassExempt packages (cmd/*, examples/*, the lint suite itself)
	// are user-interface or tooling code outside the sim contract.
	ClassExempt Class = iota
	// ClassPar is the worker-pool package: the one place raw
	// concurrency primitives are legal.
	ClassPar
	// ClassExperiments is harness code: deterministic streams required,
	// but wall-clock reads are allowed for the timing columns it prints.
	ClassExperiments
	// ClassSim is simulator library code: purity and concurrency
	// discipline apply, but the package holds no per-run protocol state
	// iterated in result order (map iteration is checked only in
	// ClassDeterministic packages).
	ClassSim
	// ClassDeterministic packages carry the full contract, including
	// the map-iteration and stream-discipline checks: any ordering
	// visible here can leak into figures.
	ClassDeterministic
)

// Scope maps import paths to classes. The zero value classifies
// everything as ClassSim; use DefaultScope for the repository layout.
type Scope struct {
	// Deterministic lists exact import paths under the full contract.
	Deterministic []string
	// Experiments lists exact import paths with wall-clock allowance.
	Experiments []string
	// Par is the worker-pool package's import path.
	Par string
	// ExemptPrefixes lists import-path prefixes outside the contract.
	ExemptPrefixes []string
}

// DefaultScope is the repository's package classification.
var DefaultScope = &Scope{
	Deterministic: []string{
		"card",
		"card/internal/card",
		"card/internal/engine",
		"card/internal/neighborhood",
		"card/internal/topology",
		"card/internal/manet",
		"card/internal/mobility",
		"card/internal/workload",
		"card/internal/sweep",
		"card/internal/resource",
	},
	Experiments: []string{"card/internal/experiments"},
	Par:         "card/internal/par",
	ExemptPrefixes: []string{
		"card/cmd/",
		"card/examples/",
		"card/internal/lint",
	},
}

// Class classifies path.
func (s *Scope) Class(path string) Class {
	for _, p := range s.ExemptPrefixes {
		if path == strings.TrimSuffix(p, "/") || strings.HasPrefix(path, p) {
			return ClassExempt
		}
	}
	if path == s.Par {
		return ClassPar
	}
	for _, p := range s.Experiments {
		if path == p {
			return ClassExperiments
		}
	}
	for _, p := range s.Deterministic {
		if path == p {
			return ClassDeterministic
		}
	}
	return ClassSim
}
