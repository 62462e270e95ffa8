// Command benchci is the benchmark gate used by the bench job of the CI
// workflow. It runs the tracked micro-benchmarks (a small fixed-seed
// workload: the 20K-node road network, D=0.01, k=2, seed 2006) -count
// times each, prints the median and quartiles of ns/op, writes the median
// repeat as JSON (ns/op plus every custom metric the benchmarks report, such
// as io_reads/op and allocs/op), and — when a baseline file is given — fails
// if any counter of a tracked benchmark regressed beyond the threshold.
//
// ns/op is recorded and reported, never gated: it carries the machine and
// its load (the +25 % gate it used to have tripped on the parent commit about
// one run in three on a busy 2-vCPU box). The counters are deterministic for
// the fixed seed and identical across machines, so they gate; wall-clock
// claims go through alternating bench/run.sh pairs, which carry their own
// spread.
//
// Usage:
//
//	benchci [-bench REGEXP] [-pkg .] [-benchtime 1x] [-count 1]
//	        [-out BENCH_PR2.json] [-against BENCH_PR2.json] [-threshold 0.25]
//
// Typical CI invocation (compare against the committed baseline, write the
// fresh numbers as a build artifact):
//
//	go run ./cmd/benchci -count 3 -out bench_current.json -against BENCH_PR2.json
//
// Refreshing the committed baseline after an intentional change of a
// counter:
//
//	go run ./cmd/benchci -count 3 -out BENCH_PR2.json
//
// The sharded scatter-gather workload (BenchmarkCIShardedQueries) is gated
// the same way against its own committed baseline, BENCH_SHARD.json — a
// second invocation, not a BENCH_PR2 refresh:
//
//	go run ./cmd/benchci -bench '^BenchmarkCIShardedQueries$' \
//	    -workload "$(jq -r .workload BENCH_SHARD.json)" \
//	    -out bench_shard_current.json -against BENCH_SHARD.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// trackedDefault anchors the per-algorithm CI workload (one op = the whole
// fixed-seed query set), the hub-label build, and the journaled maintenance
// round trips (memory + persisted, so write-ahead-journal work is gated
// like query regressions); the paper-figure regenerations are pinned by
// internal/exp's TestPaperShapes instead.
const trackedDefault = "^(BenchmarkCIQueries|BenchmarkHubLabelBuild|BenchmarkCIMaintenance)$"

// Benchmark is one measured benchmark.
type Benchmark struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the JSON document benchci reads and writes.
type File struct {
	Schema     int         `json:"schema"`
	Workload   string      `json:"workload"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

const workloadNote = "road network |V|=20000 seed=2006, D=0.01, k=2; one op = one full query sweep (every placed point queried once — see queries/op) or 64 journaled insert+delete round trips (see maintenance_ops/op); -benchtime=1x"

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(.*)$`)
var metricPair = regexp.MustCompile(`([0-9.e+-]+) ([^\s]+)`)

func main() {
	var (
		bench     = flag.String("bench", trackedDefault, "benchmark filter passed to go test -bench")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		count     = flag.Int("count", 1, "go test -count value: repeats behind the ns/op median and quartiles")
		out       = flag.String("out", "", "write results JSON to this path")
		against   = flag.String("against", "", "baseline JSON to compare against")
		threshold = flag.Float64("threshold", 0.25, "maximum tolerated regression of a counter (0.25 = +25%)")
		workload  = flag.String("workload", workloadNote, "workload note recorded in the JSON document")
	)
	flag.Parse()

	// Load the baseline before anything is written: -out and -against may
	// name the same file (the CI job refreshes the baseline artifact in
	// place while gating against the committed copy).
	var baseline *File
	if *against != "" {
		b, err := readBaseline(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchci: %v\n", err)
			os.Exit(1)
		}
		baseline = b
	}

	results, err := run(*bench, *pkg, *benchtime, *count, *workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchci: %v\n", err)
		os.Exit(1)
	}
	if len(results.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchci: no benchmarks matched")
		os.Exit(1)
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchci: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchci: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchci: wrote %s\n", *out)
	}
	if baseline != nil {
		if err := compare(*against, baseline, results, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchci: %v\n", err)
			os.Exit(1)
		}
	}
}

func readBaseline(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

// run executes go test -bench, parses the output and prints one line per
// benchmark.
func run(bench, pkg, benchtime string, count int, workload string) (*File, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, outBytes)
	}
	repeats := map[string][]Benchmark{}
	var names []string
	for _, line := range strings.Split(string(outBytes), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: m[1], NsPerOp: ns}
		for _, pm := range metricPair.FindAllStringSubmatch(m[3], -1) {
			if pm[2] == "B/op" {
				// b.ReportAllocs prints bytes next to allocs/op. The count
				// is gated like any counter; the bytes swing severalfold
				// with whether the collector emptied the scratch
				// sync.Pool mid-sweep, so they are not recorded.
				continue
			}
			if v, err := strconv.ParseFloat(pm[1], 64); err == nil {
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[pm[2]] = v
			}
		}
		if repeats[b.Name] == nil {
			names = append(names, b.Name)
		}
		repeats[b.Name] = append(repeats[b.Name], b)
	}
	sort.Strings(names)
	// The repeat with the median ns/op is the one recorded, counters and
	// all; the quartiles say how far to trust it.
	results := &File{Schema: 1, Workload: workload}
	for _, name := range names {
		r := repeats[name]
		sort.Slice(r, func(i, j int) bool { return r[i].NsPerOp < r[j].NsPerOp })
		last := len(r) - 1
		q1, med, q3 := r[last/4], r[last/2], r[(3*last+3)/4]
		fmt.Printf("%-28s %14.0f ns/op median (quartiles %.0f .. %.0f of %d)",
			name, med.NsPerOp, q1.NsPerOp, q3.NsPerOp, len(r))
		for _, k := range sortedKeys(med.Metrics) {
			fmt.Printf("  %g %s", med.Metrics[k], k)
		}
		fmt.Println()
		results.Benchmarks = append(results.Benchmarks, med)
	}
	return results, nil
}

// compare fails (non-nil error) when any baseline benchmark is missing from
// the current run or one of its counters regressed beyond the threshold.
// The custom metrics (io_reads/op, queries/op, allocs/op) are deterministic
// for the fixed seed and identical across machines: a real algorithmic
// regression moves them. ns/op carries the machine that recorded the
// baseline and whatever else it was running, so its change is printed for
// the record and gates nothing.
func compare(baselinePath string, baseline *File, current *File, threshold float64) error {
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var failures []string
	for _, base := range baseline.Benchmarks {
		now, ok := cur[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: tracked benchmark disappeared", base.Name))
			continue
		}
		verdict := "ok"
		for _, k := range sortedKeys(base.Metrics) {
			basev := base.Metrics[k]
			nowv, has := now.Metrics[k]
			switch {
			case !has:
				failures = append(failures, fmt.Sprintf("%s: metric %s disappeared", base.Name, k))
			case higherIsBetter(k):
				// Inverted polarity: a drop beyond the threshold is the
				// regression (e.g. the buffer-pool hit rate collapsing).
				if basev > 0 && nowv/basev < 1-threshold {
					verdict = "REGRESSION"
					failures = append(failures, fmt.Sprintf("%s: %s %g -> %g (%+.1f%%, limit -%.0f%%)",
						base.Name, k, basev, nowv, (nowv/basev-1)*100, threshold*100))
				}
			case basev == 0 && nowv > 0:
				verdict = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %s went 0 -> %g", base.Name, k, nowv))
			case basev > 0 && nowv/basev > 1+threshold:
				verdict = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %s %g -> %g (%+.1f%%, limit +%.0f%%)",
					base.Name, k, basev, nowv, (nowv/basev-1)*100, threshold*100))
			}
		}
		fmt.Printf("compare %-28s counters %s  (ns/op %+.1f%%, not gated)\n", base.Name, verdict, (now.NsPerOp/base.NsPerOp-1)*100)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s) against %s:\n  %s",
			len(failures), baselinePath, strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchci: no counter regressions against %s (threshold +%.0f%%)\n", baselinePath, threshold*100)
	return nil
}

// higherIsBetter reports whether metric k improves upward (cache hit
// rates), inverting the regression rule: every other counter tracked by
// the bench job (io_reads/op, allocs/op) is a cost where higher is worse.
func higherIsBetter(k string) bool { return strings.HasSuffix(k, "hit_rate") }

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
