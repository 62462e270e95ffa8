// Command experiments regenerates every table and figure of the paper's
// evaluation (Yiu et al., TKDE'06, Section 6) and prints the series in the
// paper's layout: average I/O, CPU time, and total cost under the
// 10 ms/random-I/O model, per algorithm, per setting. The harness behind it
// (internal/exp) runs on the public API — graphrnn.Open, DB.Run, the point
// sets' Insert / Remove — so the numbers are measured on the engine every
// other caller uses.
//
// Usage:
//
//	experiments [-exp all|table1|table2|fig15|...|fig22b|hub|budget|plan|shard] [-full] [-seed N] [-queries N]
//
// Beyond the paper: "hub" compares the hub-label substrate against the
// paper's four algorithms on a restricted road-network workload, "budget"
// measures answer degradation under per-query node budgets, "plan" the
// planner's auto-selection against eager, "shard" scatter-gather against
// the unsharded engine.
//
// The default scale finishes in minutes on a laptop; -full runs the
// paper-scale configuration (BRITE up to 360K nodes, SF-like 175K nodes,
// 50 queries per workload), which can take hours for the lazy variants on
// the exponential-expansion topologies — exactly the effect Fig 15 reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"graphrnn/internal/exp"
)

func main() {
	var (
		which   = flag.String("exp", "all", "experiment to run (all, table1, table2, fig15..fig22b)")
		full    = flag.Bool("full", false, "run at paper scale")
		seed    = flag.Int64("seed", 2006, "workload seed")
		queries = flag.Int("queries", 0, "queries per workload (0 = default: 20, or 50 with -full)")
	)
	flag.Parse()

	scale := exp.Scale{Full: *full, Seed: *seed, Queries: *queries}
	var runs []exp.Experiment
	if *which == "all" {
		runs = exp.All()
	} else {
		e, ok := exp.Find(*which)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available:\n", *which)
			for _, e := range exp.All() {
				fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Paper)
			}
			os.Exit(2)
		}
		runs = []exp.Experiment{e}
	}
	for _, e := range runs {
		start := time.Now()
		fmt.Printf("== %s (%s)\n", e.Paper, e.Name)
		tab, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(tab.Format())
		fmt.Printf("   [%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}
