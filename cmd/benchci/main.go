// Command benchci is the benchmark-regression gate used by the bench job of
// the CI workflow. It runs the tracked micro-benchmarks (a small fixed-seed
// workload: the 20K-node road network, D=0.01, k=2, seed 2006) exactly
// once each, writes the results as JSON (ns/op plus every custom metric the
// benchmarks report, such as io_reads/op and allocs/op), and — when a baseline file is
// given — fails if any tracked benchmark regressed beyond the threshold.
//
// Usage:
//
//	benchci [-bench REGEXP] [-pkg .] [-benchtime 1x] [-count 1]
//	        [-out BENCH_PR2.json] [-against BENCH_PR2.json] [-threshold 0.25]
//
// Typical CI invocation (compare against the committed baseline, write the
// fresh numbers as a build artifact):
//
//	go run ./cmd/benchci -out bench_current.json -against BENCH_PR2.json
//
// Refreshing the committed baseline after an intentional performance
// change:
//
//	go run ./cmd/benchci -out BENCH_PR2.json
//
// The sharded scatter-gather workload (BenchmarkCIShardedQueries) is gated
// the same way against its own committed baseline, BENCH_SHARD.json — a
// second invocation, not a BENCH_PR2 refresh:
//
//	go run ./cmd/benchci -bench '^BenchmarkCIShardedQueries$' \
//	    -workload "$(jq -r .workload BENCH_SHARD.json)" \
//	    -out bench_shard_current.json -against BENCH_SHARD.json
//
// The parallel hub-label construction (BenchmarkHubLabelBuildParallel —
// every core, delta-compressed labels, same 20K road network) is the third
// gate, against BENCH_BUILD.json. Its ns/op keeps the parallel speedup
// honest relative to the sequential BenchmarkHubLabelBuild tracked in
// BENCH_PR2, and its label_bytes/op, raw_label_bytes/op and
// label_entries/op counters are machine-independent: the batched build is
// bit-identical to the sequential one, so any drift is a correctness
// regression, not noise:
//
//	go run ./cmd/benchci -bench '^BenchmarkHubLabelBuildParallel$' \
//	    -workload "$(jq -r .workload BENCH_BUILD.json)" \
//	    -out bench_build_current.json -against BENCH_BUILD.json
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
// fixed-seed query set, so single-shot runs average out scheduler noise),
// the hub-label build, and the journaled maintenance round trips (memory +
// persisted, so write-ahead-journal overhead is gated like query
// regressions); the paper-figure regenerations are too slow and too coarse
// for a per-commit gate.
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
		count     = flag.Int("count", 1, "go test -count value")
		out       = flag.String("out", "", "write results JSON to this path")
		against   = flag.String("against", "", "baseline JSON to compare against")
		threshold = flag.Float64("threshold", 0.25, "maximum tolerated ns/op regression (0.25 = +25%)")
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
	for _, b := range results.Benchmarks {
		fmt.Printf("%-28s %14.0f ns/op", b.Name, b.NsPerOp)
		for _, k := range sortedKeys(b.Metrics) {
			fmt.Printf("  %g %s", b.Metrics[k], k)
		}
		fmt.Println()
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

// run executes go test -bench and parses the output.
func run(bench, pkg, benchtime string, count int, workload string) (*File, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchtime", benchtime, "-count", strconv.Itoa(count), pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, outBytes)
	}
	results := &File{Schema: 1, Workload: workload}
	// With -count > 1 the best (minimum) ns/op per benchmark wins: the
	// repeats exist to shave scheduler noise off the gate.
	best := map[string]int{}
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
		if i, seen := best[b.Name]; seen {
			if b.NsPerOp < results.Benchmarks[i].NsPerOp {
				results.Benchmarks[i] = b
			}
			continue
		}
		best[b.Name] = len(results.Benchmarks)
		results.Benchmarks = append(results.Benchmarks, b)
	}
	sort.Slice(results.Benchmarks, func(i, j int) bool {
		return results.Benchmarks[i].Name < results.Benchmarks[j].Name
	})
	return results, nil
}

// compare fails (non-nil error) when any baseline benchmark is missing from
// the current run or regressed beyond the threshold. ns/op carries the
// hardware of the machine that recorded the baseline, so the custom
// metrics (io_reads/op, queries/op) — deterministic for the fixed seed and
// identical across machines — are gated with the same threshold: a runner
// that is merely slower moves ns/op, a real algorithmic regression moves
// the I/O counters with it. Refresh the committed baseline from the bench
// job's artifact when the runner class changes.
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
		ratio := now.NsPerOp / base.NsPerOp
		verdict := "ok"
		if ratio > 1+threshold {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, limit +%.0f%%)",
				base.Name, base.NsPerOp, now.NsPerOp, (ratio-1)*100, threshold*100))
		}
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
		fmt.Printf("compare %-28s %+7.1f%% ns/op  %s\n", base.Name, (ratio-1)*100, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark regression(s) against %s:\n  %s",
			len(failures), baselinePath, strings.Join(failures, "\n  "))
	}
	fmt.Printf("benchci: no regressions against %s (threshold +%.0f%%)\n", baselinePath, threshold*100)
	return nil
}

// higherIsBetter reports whether metric k improves upward (cache hit
// rates), inverting the regression rule: everything else tracked by the
// bench job (ns/op, io_reads/op) is a cost where higher is worse.
func higherIsBetter(k string) bool { return strings.HasSuffix(k, "hit_rate") }

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
