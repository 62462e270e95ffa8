package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// captureRun invokes the tool's run() with stdout/stderr captured.
func captureRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	or, ow, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	er, ew, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = ow, ew
	defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
	code = run(args)
	ow.Close()
	ew.Close()
	ob, _ := io.ReadAll(or)
	eb, _ := io.ReadAll(er)
	return code, string(ob), string(eb)
}

// crossPackageTree is a module where the guarded-field annotation lives in
// one package and the violating access in another: the finding can only
// fire if the GuardedFields fact crosses the package boundary.
func crossPackageTree(useSrc string) map[string]string {
	return map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"lib/lib.go": `package lib

import "sync"

// Registry is a shared name table.
type Registry struct {
	Mu      sync.RWMutex
	Entries map[string]int // vetrnn:guardedby Mu
}
`,
		"use/use.go": useSrc,
	}
}

const useBad = `package use

import "tmpmod/lib"

func Bad(r *lib.Registry) int {
	return len(r.Entries)
}
`

const useGood = `package use

import "tmpmod/lib"

func Good(r *lib.Registry) int {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	return len(r.Entries)
}
`

func TestStandaloneCrossPackageFacts(t *testing.T) {
	dir := writeTree(t, crossPackageTree(useBad))
	// The narrow pattern only names ./use; the loader must still pull in
	// tmpmod/lib as a facts-only dependency for the annotation to matter.
	code, stdout, stderr := captureRun(t, "-dir", dir, "./use")
	if code != 1 {
		t.Fatalf("want exit 1 on cross-package violation, got %d (stdout %q stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "guarded by r.Mu") || !strings.Contains(stdout, "guardedby") {
		t.Fatalf("missing cross-package guardedby finding, got %q", stdout)
	}
	if strings.Contains(stdout, "lib/lib.go") {
		t.Fatalf("facts-only dependency contributed findings of its own: %q", stdout)
	}
}

func TestStandaloneCrossPackageClean(t *testing.T) {
	dir := writeTree(t, crossPackageTree(useGood))
	code, stdout, stderr := captureRun(t, "-dir", dir, "./...")
	if code != 0 {
		t.Fatalf("want exit 0 on clean module, got %d (stdout %q stderr %q)", code, stdout, stderr)
	}
}

// suppressedTree has one real finding, silenced by a directive — the
// shape the ratchet baselines.
func suppressedTree(extra string) map[string]string {
	files := crossPackageTree(`package use

import "tmpmod/lib"

func Bad(r *lib.Registry) int {
	//lint:ignore vetrnn/guardedby deliberate: snapshot read, registry is quiescent here
	return len(r.Entries)
}
` + extra)
	return files
}

func TestRatchetGate(t *testing.T) {
	dir := writeTree(t, suppressedTree(""))
	baseline := filepath.Join(dir, "BASELINE.json")

	// Write the baseline from the current (one-suppression) tree.
	code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "-ratchet-write", "./...")
	if code != 0 {
		t.Fatalf("ratchet-write run failed with %d: %s", code, stderr)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"guardedby": 1`) {
		t.Fatalf("baseline did not record the suppression: %s", data)
	}

	// The unchanged tree passes the gate.
	if code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "./..."); code != 0 {
		t.Fatalf("gate failed on the baselined tree: %d %s", code, stderr)
	}

	// Injecting one more suppression overruns the budget.
	more := writeTree(t, suppressedTree(`
func AlsoBad(r *lib.Registry) int {
	//lint:ignore vetrnn/guardedby second exception, beyond the budget
	return len(r.Entries)
}
`))
	if err := os.WriteFile(filepath.Join(more, "BASELINE.json"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = captureRun(t, "-dir", more, "-ratchet", filepath.Join(more, "BASELINE.json"), "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on suppression overrun, got %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "exceed the baseline") {
		t.Fatalf("overrun message missing: %q", stderr)
	}
}

// TestRatchetStaleBaselineRows: a baseline that allows more than the tree
// spends, or keeps a row for an analyzer the suite no longer has, fails the
// gate until -ratchet-write rewrites it to the tree's counts.
func TestRatchetStaleBaselineRows(t *testing.T) {
	dir := writeTree(t, suppressedTree(""))
	baseline := filepath.Join(dir, "BASELINE.json")
	for body, want := range map[string]string{
		`{"suppressions":{"guardedby":2}}`:             "lower the row to 1",
		`{"suppressions":{"guardedby":1,"retired":6}}`: "vetrnn/retired, which is not in the suite",
	} {
		if err := os.WriteFile(baseline, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
		code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "./...")
		if code != 1 || !strings.Contains(stderr, want) {
			t.Fatalf("baseline %s: exit %d, stderr %q; want exit 1 saying %q", body, code, stderr, want)
		}
	}
	if code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "-ratchet-write", "./..."); code != 0 {
		t.Fatalf("ratchet-write run failed with %d: %s", code, stderr)
	}
	if code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "./..."); code != 0 {
		t.Fatalf("gate failed on the rewritten baseline: %d %s", code, stderr)
	}
}

func TestRatchetStaleDirective(t *testing.T) {
	// The directive names guardedby on a line where nothing fires.
	files := crossPackageTree(`package use

import "tmpmod/lib"

func Fine(r *lib.Registry) int {
	r.Mu.RLock()
	defer r.Mu.RUnlock()
	//lint:ignore vetrnn/guardedby left over from a refactor
	return len(r.Entries)
}
`)
	dir := writeTree(t, files)
	baseline := filepath.Join(dir, "BASELINE.json")
	if err := os.WriteFile(baseline, []byte(`{"suppressions":{"guardedby":5}}`), 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on stale directive, got %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "stale suppression") {
		t.Fatalf("stale message missing: %q", stderr)
	}
}

// determinismTree is a module with one vetrnn:deterministic function whose
// map range is deliberately suppressed — the determinism analyzer's
// ratchet shape.
func determinismTree(extra string) map[string]string {
	return map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"det/det.go": `package det

// Tally sums the values; order does not affect the sum.
//
// vetrnn:deterministic
func Tally(m map[string]int) int {
	s := 0
	//lint:ignore vetrnn/determinism commutative sum, iteration order cannot leak
	for _, v := range m {
		s += v
	}
	return s
}
` + extra,
	}
}

func TestDeterminismRatchet(t *testing.T) {
	dir := writeTree(t, determinismTree(""))
	baseline := filepath.Join(dir, "BASELINE.json")

	code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "-ratchet-write", "./...")
	if code != 0 {
		t.Fatalf("ratchet-write run failed with %d: %s", code, stderr)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"determinism": 1`) {
		t.Fatalf("baseline did not record the determinism suppression: %s", data)
	}
	if code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "./..."); code != 0 {
		t.Fatalf("gate failed on the baselined tree: %d %s", code, stderr)
	}

	// A second suppression overruns the budget of one.
	more := writeTree(t, determinismTree(`
// Max scans the values.
//
// vetrnn:deterministic
func Max(m map[string]int) int {
	best := 0
	//lint:ignore vetrnn/determinism max is order-independent too, but the budget is spent
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
`))
	if err := os.WriteFile(filepath.Join(more, "BASELINE.json"), data, 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = captureRun(t, "-dir", more, "-ratchet", filepath.Join(more, "BASELINE.json"), "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on determinism suppression overrun, got %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "exceed the baseline") {
		t.Fatalf("overrun message missing: %q", stderr)
	}
}

func TestDeterminismRatchetStaleDirective(t *testing.T) {
	// The directive sits on a line where determinism never fires (the
	// function is not annotated, so map order is nobody's business).
	dir := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.24\n",
		"det/det.go": `package det

func Sum(m map[string]int) int {
	s := 0
	//lint:ignore vetrnn/determinism left over from before the annotation was dropped
	for _, v := range m {
		s += v
	}
	return s
}
`,
	})
	baseline := filepath.Join(dir, "BASELINE.json")
	if err := os.WriteFile(baseline, []byte(`{"suppressions":{"determinism":5}}`), 0o666); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := captureRun(t, "-dir", dir, "-ratchet", baseline, "./...")
	if code != 1 {
		t.Fatalf("want exit 1 on stale determinism directive, got %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "stale suppression") {
		t.Fatalf("stale message missing: %q", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeTree(t, crossPackageTree(useBad))
	code, stdout, _ := captureRun(t, "-dir", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("want exit 1, got %d", code)
	}
	if !strings.Contains(stdout, `"analyzer": "vetrnn/guardedby"`) {
		t.Fatalf("JSON findings missing analyzer field: %q", stdout)
	}
}
