package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"strconv"
	"strings"
	"testing"
)

// TestAPIDiscipline keeps the benchmark off everything ROADMAP schedules
// for deletion. Later changes are measured with this benchmark and may not
// edit it, so it must survive the "collapse the twins" campaign: it reaches
// layers only through engine accessors, neighborhood.Provider/Warmer,
// card.Protocol, scheme.New, workload.Run/Driver, resource.NewDirectory/
// PlaceReplicas, mobility.NewRandomWaypoint, xrand, and the read methods of
// manet.Network and topology.Graph.
func TestAPIDiscipline(t *testing.T) {
	allowed := map[string]bool{}
	for _, p := range []string{"card", "engine", "manet", "mobility", "neighborhood", "resource", "scheme", "workload", "xrand"} {
		allowed["card/internal/"+p] = true
	}
	// Package-qualified names that are going away, by exact name or prefix.
	banned := map[string][]string{
		"card/internal/manet":        {"New", "NewWithMode", "NewWithChurn"},
		"card/internal/neighborhood": {"Oracle", "ViewCache", "NewOracle", "NewViewCache"},
		"card/internal/resource":     {"Discover*"},
		"card/internal/topology":     {"Build*", "NewBuilder*"},
	}
	// Methods that are going away, on whatever receiver.
	bannedMethods := []string{"FloodQuery", "BordercastQuery"}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			imports := map[string]string{} // local name → import path
			for _, im := range file.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				local := path.Base(p)
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = p
				if strings.HasPrefix(p, "card") && !allowed[p] {
					t.Errorf("%s imports %s; the benchmark may import only %v", name, p, keys(allowed))
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				for _, m := range bannedMethods {
					if sel.Sel.Name == m {
						t.Errorf("%s: reference to %s, which ROADMAP routes through scheme.New", fset.Position(sel.Pos()), m)
					}
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				for _, pat := range banned[imports[x.Name]] {
					if sel.Sel.Name == pat || (strings.HasSuffix(pat, "*") && strings.HasPrefix(sel.Sel.Name, strings.TrimSuffix(pat, "*"))) {
						t.Errorf("%s: reference to %s.%s, which ROADMAP schedules for deletion", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, path.Base(k))
	}
	return out
}
