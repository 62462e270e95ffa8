// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: just enough surface — Analyzer,
// Pass, Diagnostic — to write typed, single-package static checks and run
// them from cmd/vetrnn and in golden tests.
//
// The repo deliberately has no module dependencies, so instead of importing
// x/tools this package mirrors its API shape using only the standard
// library. Analyzers written against it are drop-in portable to the real
// framework: a Pass carries the same fields (Fset, Files, Pkg, TypesInfo,
// Report) with the same meaning.
//
// The suite's job is to machine-check the engine contracts that were
// established by convention, and it is sized to what it catches: two
// analyzers (determinism, guardedby — see the sibling packages for the
// contracts themselves) and one driver, cmd/vetrnn. A rule whose behaviour
// a dynamic test or a run-time check pins better (the write-ahead order,
// the lock order, a discarded lookup bool, the partial result beside a
// typed execution error, a sharded query's carved deadline and budget, a
// buffer-pool tenant outliving its DB, a budgeted query stopping within one
// polling stride) is not an analyzer. No comment suppresses a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the help text: first line is a one-sentence summary.
	Doc string
	// SkipTests drops diagnostics positioned in _test.go files. The engine
	// contracts govern production code; tests deliberately break them
	// (oracle loops without contexts, intentionally ignored ok-results).
	SkipTests bool
	// FactTypes declares the package-fact types this analyzer may export
	// and import (one pointer value of each concrete type). An analyzer
	// with no FactTypes is purely single-package.
	FactTypes []Fact
	// Run applies the check to one package.
	Run func(*Pass) error
}

// Fact is a serializable datum an analyzer attaches to a package so that
// the analysis of a *downstream* package can consume it — the cross-package
// half of the framework (the miniature of x/tools' analysis.Fact, package
// facts only). Concrete fact types must be JSON-marshalable structs and
// carry the marker method.
type Fact interface{ AFact() }

// Pass carries one analyzed package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. Test-file filtering happens in the
	// driver, not here.
	Report func(Diagnostic)

	// facts is the cross-package fact store shared by the run; set by the
	// driver before Run is invoked.
	facts *FactStore
}

// ExportPackageFact attaches fact to the package under analysis. The fact's
// concrete type must be declared in the analyzer's FactTypes; a later
// export of the same type replaces the earlier one.
func (p *Pass) ExportPackageFact(fact Fact) error {
	if !p.declaresFactType(fact) {
		return fmt.Errorf("analysis: %s exports undeclared fact type %T", p.Analyzer.Name, fact)
	}
	return p.facts.export(p.Analyzer.Name, p.Pkg.Path(), fact)
}

// ImportPackageFact copies the fact this analyzer attached to the package
// at path (an import of the current package, or the current package
// itself) into fact, reporting whether one was found. The fact's concrete
// type must be declared in the analyzer's FactTypes.
func (p *Pass) ImportPackageFact(path string, fact Fact) bool {
	if !p.declaresFactType(fact) {
		return false
	}
	return p.facts.importInto(p.Analyzer.Name, path, fact)
}

func (p *Pass) declaresFactType(fact Fact) bool {
	for _, ft := range p.Analyzer.FactTypes {
		if factTypeName(ft) == factTypeName(fact) {
			return true
		}
	}
	return false
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// --- shared type-resolution helpers ----------------------------------------

// Callee resolves the *types.Func a call invokes: a package function, a
// concrete method, or an interface method. It returns nil for calls through
// function-typed variables, conversions and built-ins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			// Package-qualified call (pkg.F) has no selection entry.
			obj = info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// CalleeIs reports whether the call invokes a function or method named name
// whose defining package path equals pkgSuffix or ends with "/"+pkgSuffix.
// Suffix matching keeps the analyzers honest about which API they mean
// while letting test fixtures mirror the repo's package tree.
func CalleeIs(info *types.Info, call *ast.CallExpr, pkgSuffix, name string) bool {
	fn := Callee(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return PathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// PathHasSuffix reports whether path is suffix or ends with "/"+suffix.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
