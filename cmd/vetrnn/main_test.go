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
