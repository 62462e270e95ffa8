package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis. The
// loaders in internal/analysis/load produce these from `go list` export
// data or from testdata sources.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one diagnostic, resolved to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// RunFacts applies every analyzer to pkg and returns its findings in
// position order; analyzers with SkipTests set do not report into _test.go
// files. No comment suppresses a finding: it is fixed in the code or in the
// analyzer. facts carries package facts into the analysis (imports must
// have been analyzed into the same store) and receives the facts the
// analyzers export.
func RunFacts(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     facts,
		}
		var diags []Diagnostic
		pass.Report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			if a.SkipTests && strings.HasSuffix(posn.Filename, "_test.go") {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: posn, Message: d.Message})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
