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

// Finding is one diagnostic that survived suppression filtering, resolved
// to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Directive is one //lint:ignore comment, resolved for the ratchet: the
// analyzer names it claims to suppress and, per name, how many diagnostics
// it actually suppressed in this run. A name with zero suppressed
// diagnostics is a *stale* directive candidate (the finding it once
// silenced no longer fires there).
type Directive struct {
	Pos   token.Position
	Names []string
	// Suppressed counts, per claimed analyzer name, the diagnostics this
	// directive silenced.
	Suppressed map[string]int
}

// Run applies every analyzer to pkg with a throwaway fact store — the
// single-package entry point.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunFacts(pkg, analyzers, NewFactStore())
	return findings, err
}

// RunFacts applies every analyzer to pkg and returns the surviving
// findings in position order plus the suppression directives the package
// carries: suppressed diagnostics are dropped (and tallied on their
// directive), and analyzers with SkipTests set do not report into _test.go
// files. Malformed suppression comments are themselves reported (analyzer
// name "lintignore"), so a reason-less ignore cannot silently disable a
// check. facts carries package facts into the analysis (imports must have
// been analyzed into the same store) and receives the facts the analyzers
// export.
func RunFacts(pkg *Package, analyzers []*Analyzer, facts *FactStore) ([]Finding, []Directive, error) {
	sup, directives, bad := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Finding
	out = append(out, bad...)
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
			return nil, nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Types.Path(), err)
		}
		for _, d := range diags {
			posn := pkg.Fset.Position(d.Pos)
			if a.SkipTests && strings.HasSuffix(posn.Filename, "_test.go") {
				continue
			}
			if dir := sup.covering(posn, a.Name); dir != nil {
				dir.Suppressed[a.Name]++
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
	return out, directives, nil
}

// --- //lint:ignore suppression ---------------------------------------------
//
// A deliberate contract exception is annotated staticcheck-style:
//
//	//lint:ignore vetrnn/<name>[,vetrnn/<name>...] <reason>
//
// The comment suppresses the named analyzers on its own line and on the
// line directly below it, so it works both as a trailing comment and on the
// line before the flagged statement. The reason is mandatory: an ignore
// without one is reported as a finding in its own right.

const ignorePrefix = "//lint:ignore "

// suppressions maps file -> line -> the directive covering that line (a
// directive covers its own line and the next).
type suppressions map[string]map[int]*Directive

// covering returns the directive that suppresses analyzer at posn, if any.
func (s suppressions) covering(posn token.Position, analyzer string) *Directive {
	lines := s[posn.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range [2]int{posn.Line, posn.Line - 1} {
		d := lines[line]
		if d == nil {
			continue
		}
		for _, n := range d.Names {
			if n == analyzer || n == "*" {
				return d
			}
		}
	}
	return nil
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Directive, []Finding) {
	sup := suppressions{}
	var dirs []*Directive
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				posn := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				names, reason, _ := strings.Cut(rest, " ")
				if names == "" || strings.TrimSpace(reason) == "" {
					bad = append(bad, Finding{
						Analyzer: "lintignore",
						Pos:      posn,
						Message:  "malformed //lint:ignore: want \"//lint:ignore vetrnn/<check>[,...] reason\"",
					})
					continue
				}
				d := &Directive{Pos: posn, Suppressed: map[string]int{}}
				for _, n := range strings.Split(names, ",") {
					d.Names = append(d.Names, strings.TrimPrefix(n, "vetrnn/"))
				}
				dirs = append(dirs, d)
				lines := sup[posn.Filename]
				if lines == nil {
					lines = map[int]*Directive{}
					sup[posn.Filename] = lines
				}
				lines[posn.Line] = d
			}
		}
	}
	out := make([]Directive, len(dirs))
	for i, d := range dirs {
		out[i] = *d
	}
	// The Directive values in out alias the Suppressed maps the run
	// mutates, so callers see the final tallies.
	return sup, out, bad
}
