// Command bench is the end-to-end serving benchmark of this repository: it
// builds cmd/rnnserver, starts it as a real child process per workload,
// drives it over HTTP from a seeded generator, checks the answers against
// the brute-force oracle, and prints every metric of BENCHMARK.json by name
// with its unit. Layers are measured from outside the program: response
// stats blocks, /stats diffs, /proc/<pid> of the server, an in-process
// replay with spans around each library call, and timed calls into each
// internal layer. README.md documents the workloads and the metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	buildDir = ".bench_build" // inside the checkout, git-ignored
	// runSeconds is BENCHMARK.json's run_seconds: the timed traffic of one
	// workload, all rounds together.
	runSeconds = 12
	// maxRun bounds one workload of one invocation, set-ups, traffic,
	// checks and the traced run together; past it the run is abandoned.
	maxRun = 170 * time.Second
)

// liveServer is the child process currently running, if any, so that a
// signal or the watchdog can end it: no path leaves an orphan rnnserver.
type liveServer struct {
	mu  sync.Mutex
	s   *server
	ref *server // the reference server beside it
}

func (l *liveServer) setRef(s *server) {
	l.mu.Lock()
	l.ref = s
	l.mu.Unlock()
}

func (l *liveServer) set(s *server) {
	l.mu.Lock()
	l.s = s
	l.mu.Unlock()
}

func (l *liveServer) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range []*server{l.s, l.ref} {
		if s != nil {
			s.kill()
		}
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Int64("seed", datasetSeed, "workload seed: drives targets, mix order and routes (the dataset is fixed)")
		names    = flag.String("workload", "", "workload name[,name]: "+strings.Join(workloadNames(), ", ")+" (default all)")
		seconds  = flag.Float64("seconds", runSeconds, "timed traffic per workload, all rounds together; sizes the fixed request counts")
		rounds   = flag.Int("rounds", 0, "timed rounds per workload (default: the workload's own, 6 or 12); a timing metric is the quiet quartile of the round values")
		trace    = flag.String("trace", "1", "1: also run the in-process traced replay and the layer probes, and end with the per-layer metrics; 0: end-to-end only")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON (default "+buildDir+"/trace-<workload>.json)")
		jsonOut  = flag.String("json", "", "also write the full machine-readable report to this file")
		smoke    = flag.Bool("smoke", false, "quick self-check: 2000-node graph, 1 round, tiny counts, 1 set-up")
		pin      = flag.Bool("pin", true, "confine the benchmark and its server to one CPU (see pin.go); false measures on every CPU the process may use")
		refSrv   = flag.Bool("refserver", false, "serve the reference server on -addr (the benchmark starts itself this way; see ref.go)")
		addr     = flag.String("addr", "127.0.0.1:0", "with -refserver: the address to listen on")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json as the metric tables define it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *refSrv {
		return refServe(*addr)
	}
	if *desc {
		doc, err := describe()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(doc)
		return err
	}
	traced, err := parseTrace(*trace)
	if err != nil {
		return err
	}
	if *rounds < 0 || *seconds <= 0 {
		return fmt.Errorf("-rounds must not be negative and -seconds must be positive")
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, err := findWorkload(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			selected = append(selected, *w)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, rounds: *rounds, smoke: *smoke}
	nodes := datasetNodes
	if cfg.smoke {
		cfg.rounds, cfg.seconds, nodes = 1, 0.5, smokeNodes
	}

	nproc := runtime.NumCPU() // before pinning narrows it
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return err
	}
	if cfg.serverBin, err = buildServer(root); err != nil {
		return err
	}
	if cfg.selfBin, err = os.Executable(); err != nil {
		return err
	}

	// After the build, which may use every CPU; before the dataset and
	// any child, which must not.
	pinned := -1
	if *pin {
		if pinned, err = pinProcess(); err != nil {
			return fmt.Errorf("pinning to one CPU: %w", err)
		}
	}

	live := &liveServer{}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	watchdog := time.AfterFunc(maxRun*time.Duration(len(selected)), func() {
		live.kill()
		fmt.Fprintf(os.Stderr, "bench: abandoned after %v\n", maxRun*time.Duration(len(selected)))
		os.Exit(3)
	})
	defer watchdog.Stop()
	go func() {
		// A signal ends the child at once; the run then fails on its next
		// request and reports the interruption.
		<-ctx.Done()
		live.kill()
	}()

	fmt.Fprintf(os.Stderr, "generating the dataset (road, %d nodes, seed %d)\n", nodes, datasetSeed)
	d, err := newDataset(nodes)
	if err != nil {
		return err
	}
	defer d.close() // memory-backed: nothing to flush, nothing to report

	rep := report{
		Header: header{
			NProc: nproc, PinnedCPU: pinned, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Commit: headCommit(root), Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
			Dataset: fmt.Sprintf("road |V|=%d |E|=%d |P|=%d sites=%d", d.g.NumNodes(), d.g.NumEdges(), d.ps.Len(), d.sites.Len()),
			Counts:  map[string]string{},
		},
	}
	for i := range selected {
		rep.Header.Counts[selected[i].name] = formatCounts(cfg, &selected[i])
	}
	rep.Header.print(os.Stdout)

	var probes map[string]float64
	for i := range selected {
		w := &selected[i]
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted")
		}
		fmt.Fprintf(os.Stderr, "%s: %d set-up(s), warm-up, %s\n", w.name, w.setups, rep.Header.Counts[w.name])
		res, err := runWorkload(ctx, cfg, w, d, live)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if traced {
			out := *traceOut
			if out == "" {
				out = filepath.Join(root, buildDir, "trace-"+w.name+".json")
			}
			fmt.Fprintf(os.Stderr, "%s: traced in-process replay of %d requests\n", w.name, min(w.replay, len(res.replayReqs)))
			tm, err := tracedRun(w, d, res.replayReqs, res.replayLat, out)
			if err != nil {
				return fmt.Errorf("%s: traced run: %w", w.name, err)
			}
			if probes == nil {
				fmt.Fprintf(os.Stderr, "layer probes\n")
				if probes, err = layerProbes(nodes, 4); err != nil {
					return fmt.Errorf("layer probes: %w", err)
				}
			}
			for _, m := range []map[string]float64{tm, probes} {
				for k, v := range m {
					res.PerLayer[k] = v
				}
			}
		}
		res.print(os.Stdout, traced)
		rep.Workloads = append(rep.Workloads, res)
	}

	line := rep.resultLine(traced)
	if *jsonOut != "" {
		rep.Result = line
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func parseTrace(v string) (bool, error) {
	switch v {
	case "1":
		return true, nil
	case "0":
		return false, nil
	}
	return false, fmt.Errorf("-trace takes 0 or 1, got %q", v)
}

// repoRoot finds the checkout root — the directory holding cmd/rnnserver —
// from the working directory upwards, so the benchmark runs from the root
// (as the driver does) or from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rnnserver", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("cmd/rnnserver not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/rnnserver from the checkout into the build
// directory. With a warm build cache this is a no-op of a few hundred ms.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "rnnserver")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/rnnserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/rnnserver: %v\n%s", err, out)
	}
	return bin, nil
}

// headCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return "unknown"
}
