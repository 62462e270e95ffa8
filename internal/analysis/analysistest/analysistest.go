// Package analysistest runs an analyzer over golden packages under
// testdata/src/<importpath>/ and checks its findings against // want
// comments — the x/tools analysistest contract, reimplemented over the
// in-repo framework.
//
// Expectation syntax, at the end of the line a finding should land on:
//
//	x, _ := g.EdgeWeight(u, v) // want `discards the ok result`
//
// Each backquoted or double-quoted string is a regexp that must match the
// message of exactly one finding on that line; findings on lines without a
// matching expectation, and expectations without a finding, fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"graphrnn/internal/analysis"
	"graphrnn/internal/analysis/load"
)

// Run loads each package from testdata/src and applies a, comparing
// findings with // want expectations. Testdata-resident dependencies of
// the named package are analyzed first into a shared fact store (their
// findings are not checked), so fixtures exercise cross-package facts the
// way the real drivers do: annotate in one fixture package, expect the
// diagnostic in its importer.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, path := range pkgpaths {
		pkgs, err := load.TestdataAll(testdata, path)
		if err != nil {
			t.Errorf("load %s: %v", path, err)
			continue
		}
		facts := analysis.NewFactStore()
		for i, pkg := range pkgs {
			findings, err := analysis.RunFacts(pkg, []*analysis.Analyzer{a}, facts)
			if err != nil {
				t.Errorf("run %s on %s: %v", a.Name, pkg.Types.Path(), err)
				break
			}
			if i == len(pkgs)-1 { // the named package
				checkWants(t, pkg, findings)
			}
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

func checkWants(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	wants, err := collectWants(pkg)
	if err != nil {
		t.Error(err)
		return
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: [%s] %s", f.Pos, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.text)
		}
	}
}

var wantRx = regexp.MustCompile(`// want (.*)$`)

func collectWants(pkg *analysis.Package) ([]*want, error) {
	var wants []*want
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", posn, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %q: %v", posn, p, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: wantLine(pkg.Fset, posn), re: re, text: p})
				}
			}
		}
	}
	return wants, nil
}

// wantLine is the line the expectation applies to: the comment's own line.
func wantLine(_ *token.FileSet, posn token.Position) int { return posn.Line }

// splitPatterns parses a sequence of quoted or backquoted regexps.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			p, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, p)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[2+end:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted or backquoted, got %q", s)
		}
	}
	return out, nil
}
