package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// reportCalls is a toy analyzer that reports every call expression, so the
// tests can position findings precisely.
var reportCalls = &Analyzer{
	Name:      "reportcalls",
	Doc:       "reports every call",
	SkipTests: true,
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(c.Pos(), "call here")
				}
				return true
			})
		}
		return nil
	},
}

func loadSrc(t *testing.T, files map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	var asts []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, asts, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: asts, Types: pkg, Info: info}
}

func TestSkipTestsFiltersTestFiles(t *testing.T) {
	pkg := loadSrc(t, map[string]string{
		"a.go":      "package p\n\nfunc g() {}\n",
		"a_test.go": "package p\n\nfunc h() { g() }\n",
	})
	findings, err := RunFacts(pkg, []*Analyzer{reportCalls}, NewFactStore())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("got %v, want findings in _test.go filtered", findings)
	}
}
