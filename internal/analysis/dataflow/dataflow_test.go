package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"graphrnn/internal/analysis/dataflow"
)

// parseBody returns the CFG of the body of the first function in src.
func parseBody(t *testing.T, src string) (*token.FileSet, *dataflow.Graph) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fset, dataflow.New(fd.Body)
		}
	}
	t.Fatal("no function in src")
	return nil, nil
}

// lockLattice is the canonical test lattice: calls to lock(name) add the
// name, unlock(name) removes it, and the join keeps only names held on
// every path — the exact shape guardedby builds on.
type lockLattice struct{}

type lockSet map[string]bool

func (lockLattice) Entry() lockSet { return lockSet{} }

func (lockLattice) Join(a, b lockSet) lockSet {
	out := lockSet{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func (lockLattice) Equal(a, b lockSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func (lockLattice) Transfer(b *dataflow.Block, in lockSet) lockSet {
	out := lockSet{}
	for k := range in {
		out[k] = true
	}
	for _, n := range b.Nodes {
		applyNode(out, n)
	}
	return out
}

// applyNode interprets lock/unlock calls inside one block node.
func applyNode(out lockSet, n ast.Node) {
	dataflow.VisitBlockNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || len(call.Args) != 1 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return true
		}
		name := strings.Trim(lit.Value, `"`)
		switch id.Name {
		case "lock":
			out[name] = true
		case "unlock":
			delete(out, name)
		}
		return true
	})
}

// heldAt solves the problem and returns the sorted lock names held at
// the call probe(marker): the block's input state with the nodes before
// the probe replayed on top — exactly how an analyzer reports state at a
// specific statement.
func heldAt(t *testing.T, src, marker string) []string {
	t.Helper()
	_, g := parseBody(t, src)
	in := dataflow.Forward[lockSet](g, lockLattice{})
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			found := false
			dataflow.VisitBlockNode(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "probe" || len(call.Args) != 1 {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if ok && strings.Trim(lit.Value, `"`) == marker {
					found = true
				}
				return true
			})
			if found {
				state := lockSet{}
				for k := range in[b] {
					state[k] = true
				}
				for _, prev := range b.Nodes[:i] {
					applyNode(state, prev)
				}
				var names []string
				for k := range state {
					names = append(names, k)
				}
				sort.Strings(names)
				return names
			}
		}
	}
	t.Fatalf("probe %q not found", marker)
	return nil
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStraightLine(t *testing.T) {
	got := heldAt(t, `
func f() {
	lock("a")
	probe("p")
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestBranchJoinDropsOneSided(t *testing.T) {
	// A lock taken on only one arm is not held after the merge.
	got := heldAt(t, `
func f(c bool) {
	if c {
		lock("a")
	}
	probe("p")
}`, "p")
	if len(got) != 0 {
		t.Fatalf("held = %v, want []", got)
	}
}

func TestBranchJoinKeepsBothSided(t *testing.T) {
	got := heldAt(t, `
func f(c bool) {
	if c {
		lock("a")
	} else {
		lock("a")
		lock("b")
	}
	probe("p")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestEarlyReturnDoesNotLeakUnlock(t *testing.T) {
	// The lexical-replay false positive: the error path unlocks and
	// returns, and the fall-through path must still see the lock held.
	got := heldAt(t, `
func f(bad bool) int {
	lock("a")
	if bad {
		unlock("a")
		return 0
	}
	probe("p")
	unlock("a")
	return 1
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestLoopKeepsOuterLock(t *testing.T) {
	got := heldAt(t, `
func f(xs []int) {
	lock("a")
	for _, x := range xs {
		_ = x
		probe("p")
	}
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestLoopBodyLockNotHeldAtHead(t *testing.T) {
	// A lock both taken and released inside the body is not held on the
	// next head evaluation, and not after the loop.
	got := heldAt(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		lock("a")
		unlock("a")
	}
	probe("p")
}`, "p")
	if len(got) != 0 {
		t.Fatalf("held after loop = %v, want []", got)
	}
}

func TestLoopUnbalancedBodyDropsAtHead(t *testing.T) {
	// A body that unlocks without relocking cannot claim the lock on the
	// second iteration: the head join drops it.
	got := heldAt(t, `
func f(n int) {
	lock("a")
	for i := 0; i < n; i++ {
		probe("p")
		unlock("a")
	}
}`, "p")
	if len(got) != 0 {
		t.Fatalf("held in body = %v, want [] (backedge lost the lock)", got)
	}
}

func TestSwitchAllCasesLock(t *testing.T) {
	got := heldAt(t, `
func f(n int) {
	switch n {
	case 1:
		lock("a")
	default:
		lock("a")
	}
	probe("p")
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestSwitchMissingDefaultDrops(t *testing.T) {
	// No default: the zero-case path reaches the merge without the lock.
	got := heldAt(t, `
func f(n int) {
	switch n {
	case 1:
		lock("a")
	}
	probe("p")
}`, "p")
	if len(got) != 0 {
		t.Fatalf("held = %v, want []", got)
	}
}

func TestSelectClauseFlow(t *testing.T) {
	got := heldAt(t, `
func f(ch chan int) {
	lock("a")
	select {
	case <-ch:
		probe("p")
	case ch <- 1:
	}
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestLabeledBreak(t *testing.T) {
	// break out of both loops: the lock taken before the outer loop is
	// held at the join; the inner body lock is not.
	got := heldAt(t, `
func f(xs []int) {
	lock("a")
outer:
	for _, x := range xs {
		for _, y := range xs {
			lock("b")
			if x == y {
				unlock("b")
				break outer
			}
			unlock("b")
		}
	}
	probe("p")
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestGotoForward(t *testing.T) {
	got := heldAt(t, `
func f(c bool) {
	lock("a")
	if c {
		goto done
	}
	lock("b")
	unlock("b")
done:
	probe("p")
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestPanicTerminatesBlock(t *testing.T) {
	// The panic path does not flow into the merge, so its unlock does
	// not strip the lock from the fall-through path.
	got := heldAt(t, `
func f(bad bool) {
	lock("a")
	if bad {
		unlock("a")
		panic("boom")
	}
	probe("p")
	unlock("a")
}`, "p")
	if !eq(got, []string{"a"}) {
		t.Fatalf("held = %v, want [a]", got)
	}
}

func TestFallthroughChains(t *testing.T) {
	got := heldAt(t, `
func f(n int) {
	switch n {
	case 1:
		lock("a")
		fallthrough
	case 2:
		probe("p")
		unlock("a")
	}
}`, "p")
	// The probe block joins case-1-fallthrough (a held) and the direct
	// case-2 entry (nothing held): intersection is empty.
	if len(got) != 0 {
		t.Fatalf("held = %v, want [] (direct case-2 path holds nothing)", got)
	}
}

func TestUnreachableGetsEntryState(t *testing.T) {
	got := heldAt(t, `
func f() int {
	lock("a")
	unlock("a")
	return 0
	probe("p")
	return 1
}`, "p")
	if len(got) != 0 {
		t.Fatalf("held = %v, want [] (entry state in dead code)", got)
	}
}

// TestCFGShapes sanity-checks block construction on a composite body:
// every statement lands in exactly one block, and the entry reaches the
// return through the expected number of blocks.
func TestCFGShapes(t *testing.T) {
	_, g := parseBody(t, `
func f(xs []int, c bool) int {
	total := 0
	for i, x := range xs {
		if x < 0 {
			continue
		}
		total += i
	}
	if c {
		return total
	}
	return -total
}`)
	if g.Entry == nil || len(g.Blocks) == 0 {
		t.Fatal("empty graph")
	}
	if g.Entry.Index != 0 {
		t.Fatalf("entry index = %d", g.Entry.Index)
	}
	// Reachability: the entry must reach a block whose last node is a
	// ReturnStmt.
	seen := map[*dataflow.Block]bool{}
	var walk func(b *dataflow.Block)
	returns := 0
	walk = func(b *dataflow.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	if returns != 2 {
		t.Fatalf("reachable returns = %d, want 2", returns)
	}
}
