package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
)

// header records where and how a report was measured.
type header struct {
	NProc      int               `json:"nproc"`
	PinnedCPU  int               `json:"pinned_cpu"` // -1: not pinned
	GOMAXPROCS int               `json:"gomaxprocs"`
	Go         string            `json:"go"`
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Smoke      bool              `json:"smoke,omitempty"`
	Dataset    string            `json:"dataset"`
	Counts     map[string]string `json:"request_counts"`
}

func (h *header) print(w io.Writer) {
	fmt.Fprintf(w, "graphrnn serving benchmark\n")
	fmt.Fprintf(w, "  nproc %d  GOMAXPROCS %d  %s  commit %s\n", h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	if h.PinnedCPU >= 0 {
		fmt.Fprintf(w, "  benchmark and server pinned to CPU %d\n", h.PinnedCPU)
	}
	fmt.Fprintf(w, "  dataset %s\n", h.Dataset)
	fmt.Fprintf(w, "  workload seed %d, %g s of timed traffic per workload\n", h.Seed, h.Seconds)
	for _, name := range slices.Sorted(maps.Keys(h.Counts)) {
		fmt.Fprintf(w, "  %-12s %s\n", name, h.Counts[name])
	}
}

// report is the machine-readable output of one invocation (-json).
type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
	Result    resultLine        `json:"result"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine sums the workloads' operations and carries the end-to-end
// metrics (or, traced, the per-layer ones). One workload reports bare
// metric names, as BENCHMARK.json lists them; several prefix each name
// with its workload.
func (r *report) resultLine(traced bool) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, w := range r.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		defs, vals := endToEnd, w.EndToEnd
		if traced {
			defs, vals = perLayer, w.PerLayer
		}
		for name, v := range resultMetrics(defs, vals) {
			if len(r.Workloads) > 1 {
				name = w.Workload + "." + name
			}
			line.Metrics[name] = v
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return line
}

// print renders one workload's metrics by name, with units; end-to-end
// metrics show the round values their median was taken from.
func (res *workloadResult) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "\n== %s ==\n", res.Workload)
	fmt.Fprintf(w, "end-to-end (quiet quartile of %d round(s); setup_s, rss_mb: median)\n", res.Rounds)
	for _, d := range endToEnd {
		each := res.PerRound[d.Name]
		if d.Name == "setup_s" {
			each = res.Setups
		}
		fmt.Fprintf(w, "  %-16s %12.4f %-5s %s-is-better, bound %2.0f%%  %s\n",
			d.Name, res.EndToEnd[d.Name], d.Unit, d.Better, 100*d.Bound, formatEach(each))
	}
	fmt.Fprintf(w, "  %-16s %12.6f ratio  (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "    FAILED: %s\n", f)
	}
	if res.SHA != "" {
		fmt.Fprintf(w, "  answers_sha256   %s\n", res.SHA)
	}
	fmt.Fprintf(w, "per-layer")
	if !traced {
		fmt.Fprintf(w, " (HTTP run only; -trace 1 adds the replay and the probes)")
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-9s -> %s\n", d.Name, v, d.Unit, d.moves)
		}
	}
}

func formatEach(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
