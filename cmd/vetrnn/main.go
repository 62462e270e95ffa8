// Command vetrnn is the repo's invariant checker: one driver over the
// internal/analysis suite (determinism, execpoll, guardedby, tenantclose)
// that machine-checks the engine's polling, locking and tenant contracts
// plus the determinism contract of the parallel build paths. Run it from
// the module root:
//
//	go run ./cmd/vetrnn ./...
//	go run ./cmd/vetrnn -json -ratchet VETRNN_BASELINE.json ./...
//
// `go list -deps -export` enumerates the matched packages; they are analyzed
// in dependency order through one shared fact store, so a contract declared
// in internal/storage is enforced in cmd/rnnserver. Module-local
// dependencies of a narrow pattern are loaded for their facts only.
//
// The suppression ratchet: -ratchet <baseline> fails when //lint:ignore
// vetrnn/* counts per analyzer exceed the committed baseline or when a
// directive is stale (its analyzer no longer fires on the covered lines);
// -ratchet-write refreshes the baseline file.
//
// Each analyzer can be disabled with -<name>=false. Exit codes: 0 clean, 1
// findings or ratchet violations, 2 load or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"graphrnn/internal/analysis"
	"graphrnn/internal/analysis/determinism"
	"graphrnn/internal/analysis/execpoll"
	"graphrnn/internal/analysis/guardedby"
	"graphrnn/internal/analysis/load"
	"graphrnn/internal/analysis/tenantclose"
)

// suite is the full analyzer suite, in report order.
var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	execpoll.Analyzer,
	guardedby.Analyzer,
	tenantclose.Analyzer,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet(filepath.Base(os.Args[0]), flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit findings as JSON on stdout")
	dir := fs.String("dir", ".", "directory to run go list from")
	ratchetFile := fs.String("ratchet", "", "baseline file to ratchet //lint:ignore counts against")
	ratchetWrite := fs.Bool("ratchet-write", false, "rewrite the -ratchet baseline from the tree's current suppressions")
	enabled := map[string]*bool{}
	for _, a := range suite {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = fs.Bool(a.Name, true, doc)
	}
	fs.Parse(args)

	var active []*analysis.Analyzer
	activeNames := map[string]bool{}
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
			activeNames[a.Name] = true
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pkgs, err := load.GoList(*dir, patterns...)
	if err != nil {
		return fail(err)
	}
	// Module-local dependencies pulled in only for their facts contribute
	// neither findings nor ratchet directives.
	facts := analysis.NewFactStore()
	var all []analysis.Finding
	var directives []analysis.Directive
	for _, pkg := range pkgs {
		findings, dirs, err := analysis.RunFacts(pkg.Package, active, facts)
		if err != nil {
			return fail(err)
		}
		if pkg.FactsOnly {
			continue
		}
		all = append(all, findings...)
		directives = append(directives, dirs...)
	}

	code := 0
	if *asJSON {
		emitJSON(all)
	} else {
		for _, f := range all {
			fmt.Println(f)
		}
	}
	if len(all) > 0 {
		code = 1
	}

	switch {
	case *ratchetFile != "" && *ratchetWrite:
		if err := analysis.WriteBaseline(*ratchetFile, directives); err != nil {
			return fail(err)
		}
	case *ratchetFile != "":
		baseline, err := analysis.ReadBaseline(*ratchetFile)
		if err != nil {
			return fail(err)
		}
		violations := analysis.Ratchet(baseline, directives, activeNames)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		if len(violations) > 0 {
			code = 1
		}
	}
	return code
}

// emitJSON prints findings as a JSON array on stdout.
func emitJSON(findings []analysis.Finding) {
	type jsonFinding struct {
		Analyzer string `json:"analyzer"`
		Posn     string `json:"posn"`
		Message  string `json:"message"`
	}
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Analyzer: "vetrnn/" + f.Analyzer,
			Posn:     f.Pos.String(),
			Message:  f.Message,
		})
	}
	data, _ := json.MarshalIndent(out, "", "\t")
	os.Stdout.Write(data)
	fmt.Println()
}
