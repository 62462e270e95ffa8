// Package load turns Go packages into type-checked analysis.Package values
// using only the standard library. Two loaders cover the two ways the
// vetrnn suite runs:
//
//   - GoList: cmd/vetrnn. `go list -deps -export -json` enumerates the
//     matched packages plus the export-data files of every dependency, and
//     each matched package is parsed and type-checked against that export
//     data — the same artifacts the build cache already holds, so a warm
//     run re-parses only the module's own sources.
//
//   - Testdata: golden-test mode. Packages live as plain sources under
//     testdata/src/<importpath>/ (the layout of x/tools' analysistest);
//     imports resolve against sibling testdata packages first and fall back
//     to type-checking the standard library from GOROOT source.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"graphrnn/internal/analysis"
)

// newInfo allocates the full set of type-information maps the analyzers
// consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer, goVersion string) (*analysis.Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	if goVersion != "" {
		conf.GoVersion = goVersion
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &analysis.Package{Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// --- cmd/vetrnn: go list -export -------------------------------------------

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Module     *struct{ GoVersion string }
}

// Loaded is one package GoList produced. FactsOnly marks a
// module-local dependency that was loaded only so its exported facts are
// available to the matched packages — the driver analyzes it but must not
// report its findings (it was not asked about).
type Loaded struct {
	*analysis.Package
	FactsOnly bool
}

// GoList loads the packages matched by patterns (run in dir), type-checked
// against the build cache's export data, plus every module-local
// dependency (marked FactsOnly) so cross-package facts are complete even
// for narrow patterns. Packages come back in dependency order — imports
// strictly before importers — which is the order a fact-threading driver
// must analyze them in. Test files are not loaded: `go list` GoFiles
// excludes them, which matches the suite's scope — the engine contracts
// govern production code.
func GoList(dir string, patterns ...string) ([]Loaded, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Imports,Export,Standard,DepOnly,ImportMap,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	local := map[string]listPkg{} // module-local (non-standard) packages
	var roots []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			local[p.ImportPath] = p
			if !p.DepOnly {
				roots = append(roots, p.ImportPath)
			}
		}
	}
	sort.Strings(roots)

	// Dependency (post-)order over the module-local import graph, so each
	// package's facts exist before its importers are analyzed.
	var order []string
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		p, ok := local[path]
		if !ok || seen[path] {
			return
		}
		seen[path] = true
		imports := append([]string(nil), p.Imports...)
		sort.Strings(imports)
		for _, imp := range imports {
			if to, ok := p.ImportMap[imp]; ok {
				imp = to
			}
			visit(imp)
		}
		order = append(order, path)
	}
	for _, r := range roots {
		visit(r)
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []Loaded
	for _, path := range order {
		t := local[path]
		if len(t.GoFiles) == 0 {
			continue
		}
		names := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			names[i] = filepath.Join(t.Dir, f)
		}
		files, err := parseFiles(fset, names)
		if err != nil {
			return nil, err
		}
		goVersion := ""
		if t.Module != nil && t.Module.GoVersion != "" {
			goVersion = "go" + t.Module.GoVersion
		}
		pkg, err := check(fset, t.ImportPath, files, importMapped(imp, t.ImportMap), goVersion)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, Loaded{Package: pkg, FactsOnly: t.DepOnly})
	}
	return pkgs, nil
}

// exportImporter type-checks imports from compiler export data; exports
// maps each import path to its export file.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f := exports[path]
		if f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// importMapped applies a per-package import map (vendoring, test variants)
// in front of an importer.
func importMapped(imp types.Importer, m map[string]string) types.Importer {
	if len(m) == 0 {
		return imp
	}
	return mappedImporter{imp: imp, m: m}
}

type mappedImporter struct {
	imp types.Importer
	m   map[string]string
}

func (mi mappedImporter) Import(path string) (*types.Package, error) {
	if to, ok := mi.m[path]; ok {
		path = to
	}
	return mi.imp.Import(path)
}

// --- golden tests: testdata/src --------------------------------------------

// Testdata loads importPath from testdataDir/src/importPath, resolving
// imports against sibling testdata packages first and the standard library
// (type-checked from GOROOT source) second.
func Testdata(testdataDir, importPath string) (*analysis.Package, error) {
	pkgs, err := TestdataAll(testdataDir, importPath)
	if err != nil {
		return nil, err
	}
	return pkgs[len(pkgs)-1], nil
}

// TestdataAll is Testdata returning every testdata-resident package the
// load pulled in, in dependency order with the named package last — the
// order a fact-threading driver analyzes them in, so golden tests exercise
// cross-package facts exactly like the real drivers.
func TestdataAll(testdataDir, importPath string) ([]*analysis.Package, error) {
	fset := token.NewFileSet()
	ld := &testdataLoader{
		fset:   fset,
		src:    filepath.Join(testdataDir, "src"),
		std:    importer.ForCompiler(fset, "source", nil),
		loaded: map[string]*analysis.Package{},
	}
	if _, err := ld.load(importPath); err != nil {
		return nil, err
	}
	return ld.order, nil
}

type testdataLoader struct {
	fset   *token.FileSet
	src    string
	std    types.Importer
	loaded map[string]*analysis.Package
	order  []*analysis.Package
	stack  []string
}

func (ld *testdataLoader) load(path string) (*analysis.Package, error) {
	if pkg, ok := ld.loaded[path]; ok {
		return pkg, nil
	}
	for _, s := range ld.stack {
		if s == path {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
	}
	dir := filepath.Join(ld.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)
	files, err := parseFiles(ld.fset, names)
	if err != nil {
		return nil, err
	}
	ld.stack = append(ld.stack, path)
	pkg, err := check(ld.fset, path, files, (*testdataImporter)(ld), "")
	ld.stack = ld.stack[:len(ld.stack)-1]
	if err != nil {
		return nil, err
	}
	ld.loaded[path] = pkg
	ld.order = append(ld.order, pkg)
	return pkg, nil
}

type testdataImporter testdataLoader

func (ti *testdataImporter) Import(path string) (*types.Package, error) {
	ld := (*testdataLoader)(ti)
	if _, err := os.Stat(filepath.Join(ld.src, filepath.FromSlash(path))); err == nil {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}
