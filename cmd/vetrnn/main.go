// Command vetrnn is the repo's invariant checker: one driver over the
// internal/analysis suite (determinism, guardedby) that machine-checks the
// engine's locking contract and the determinism contract of the parallel
// build paths. Run it from the module root:
//
//	go run ./cmd/vetrnn -json ./...
//
// `go list -deps -export` enumerates the matched packages; they are analyzed
// in dependency order through one shared fact store, so a contract declared
// in internal/storage is enforced in cmd/rnnserver. Module-local
// dependencies of a narrow pattern are loaded for their facts only.
//
// No comment suppresses a finding: fix the code or the analyzer. Exit
// codes: 0 clean, 1 findings, 2 load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"graphrnn/internal/analysis"
	"graphrnn/internal/analysis/determinism"
	"graphrnn/internal/analysis/guardedby"
	"graphrnn/internal/analysis/load"
)

// suite is the full analyzer suite, in report order.
var suite = []*analysis.Analyzer{
	determinism.Analyzer,
	guardedby.Analyzer,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet(filepath.Base(os.Args[0]), flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit findings as JSON on stdout")
	dir := fs.String("dir", ".", "directory to run go list from")
	fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.GoList(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// Module-local dependencies pulled in only for their facts contribute
	// no findings.
	facts := analysis.NewFactStore()
	var all []analysis.Finding
	for _, pkg := range pkgs {
		findings, err := analysis.RunFacts(pkg.Package, suite, facts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if !pkg.FactsOnly {
			all = append(all, findings...)
		}
	}

	if *asJSON {
		emitJSON(all)
	} else {
		for _, f := range all {
			fmt.Println(f)
		}
	}
	if len(all) > 0 {
		return 1
	}
	return 0
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
