// Package determinism checks declared replay-determinism contracts: a
// function whose doc comment carries
//
//	// vetrnn:deterministic
//
// must produce bit-identical results given identical inputs — the
// contract the batched hub-label merge (parallel build == sequential
// build), the shard partitioner (same flags => same cuts in every
// process), and the label codec all depend on. The analyzer rejects the
// ways Go programs usually leak nondeterminism into results:
//
//   - ranging over a map (or a sync.Map) in iteration order, unless the
//     loop only collects keys into local slices that are each sorted
//     afterwards (the collect-then-sort idiom);
//   - feeding a time.Now / time.Since / time.Until value into the
//     function's results — returning it or storing it through a
//     pointer/field/index. Passing wall-clock values to logging is fine:
//     only returns and non-local stores are sinks, and the time-taint is
//     tracked through local assignments on the shared dataflow CFG;
//   - consuming the global math/rand stream (rand.Intn and friends).
//     Seeded private generators (rand.New(rand.NewSource(seed))) are
//     deterministic and exempt;
//   - select with two or more comm clauses (the scheduler picks among
//     ready cases).
//
// The contract is transitive. Every function's nondeterminism summary is
// exported as a package fact, so an annotated function is checked against
// everything it reaches: same-package callees are traversed directly
// (their sources are reported at the source position, naming the
// annotated root), and cross-package calls are checked against the
// callee package's exported summaries and reported at the call site.
// Callees without facts (stdlib, interfaces, function values) are assumed
// deterministic — the analyzer names contracts, it does not prove them.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"graphrnn/internal/analysis"
	"graphrnn/internal/analysis/dataflow"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Doc:       "functions annotated vetrnn:deterministic (and everything they transitively call) must not consume map order, wall-clock time, global rand, or scheduler choice",
	SkipTests: true,
	FactTypes: []analysis.Fact{new(NondetFuncs)},
	Run:       run,
}

// NondetFuncs is the package fact mapping "Func" / "Type.Method" to a
// one-line reason the function is nondeterministic. Functions absent from
// the map are deterministic as far as this analyzer can tell. The
// summaries are transitive: a function that only calls a nondeterministic
// one is itself listed.
type NondetFuncs struct {
	Funcs map[string]string `json:"funcs"`
}

// AFact marks NondetFuncs as a fact type.
func (*NondetFuncs) AFact() {}

const marker = "vetrnn:deterministic"

// modeledPkgs are the packages whose nondeterminism this analyzer models
// directly at call sites (global-rand consumption, wall-clock reads,
// sync.Map iteration). Their own internals would trip those same checks
// when the vet driver analyzes the standard library — rand.NewSource
// calls the unexported newSource, time.Since calls time.Now — so they
// are neither analyzed nor consulted for facts: the call-site model IS
// the contract for them.
var modeledPkgs = map[string]bool{
	"math/rand": true, "math/rand/v2": true, "time": true, "sync": true,
}

// source is one direct nondeterminism source inside a function body.
type source struct {
	pos    token.Pos
	reason string
}

// callSite is one statically resolved call.
type callSite struct {
	pos token.Pos
	fn  *types.Func
}

type funcInfo struct {
	key       string
	annotated bool
	sources   []source
	calls     []callSite
}

func run(pass *analysis.Pass) error {
	if modeledPkgs[pass.Pkg.Path()] {
		return nil
	}
	infos := map[string]*funcInfo{}
	var order []string
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			info := &funcInfo{key: funcKey(obj), annotated: hasMarker(fd.Doc)}
			collectSources(pass, fd, info)
			collectCalls(pass, fd, info)
			infos[info.key] = info
			order = append(order, info.key)
		}
	}

	imported := map[string]*NondetFuncs{}
	lookup := func(fn *types.Func) (string, bool) {
		if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
			return "", false
		}
		path := fn.Pkg().Path()
		if modeledPkgs[path] {
			return "", false
		}
		facts, ok := imported[path]
		if !ok {
			facts = new(NondetFuncs)
			if !pass.ImportPackageFact(path, facts) {
				facts = nil
			}
			imported[path] = facts
		}
		if facts == nil {
			return "", false
		}
		reason, ok := facts.Funcs[funcKey(fn)]
		return reason, ok
	}

	// Transitive summaries: seed with direct sources, then propagate
	// nondeterminism backward through same-package calls to a fixpoint
	// (imported callees contribute through their packages' facts, which
	// are already transitive).
	reasons := map[string]string{}
	for _, key := range order {
		if info := infos[key]; len(info.sources) > 0 {
			reasons[key] = info.sources[0].reason
		}
	}
	for changed := true; changed; {
		changed = false
		for _, key := range order {
			if _, done := reasons[key]; done {
				continue
			}
			for _, c := range infos[key].calls {
				var nondet bool
				if c.fn.Pkg() == pass.Pkg {
					_, nondet = reasons[funcKey(c.fn)]
				} else {
					_, nondet = lookup(c.fn)
				}
				if nondet {
					reasons[key] = fmt.Sprintf("calls %s, which is nondeterministic", funcDisplay(c.fn))
					changed = true
					break
				}
			}
		}
	}
	if len(reasons) > 0 {
		if err := pass.ExportPackageFact(&NondetFuncs{Funcs: reasons}); err != nil {
			return err
		}
	}

	// Enforcement: walk the same-package call graph from every annotated
	// root; report each reachable direct source at its own position, and
	// each call into a nondeterministic imported function at the call
	// site. A source shared by several roots is reported once.
	reported := map[token.Pos]bool{}
	for _, rootKey := range order {
		if !infos[rootKey].annotated {
			continue
		}
		visited := map[string]bool{rootKey: true}
		queue := []string{rootKey}
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			info := infos[key]
			via := ""
			if key != rootKey {
				via = fmt.Sprintf(" (reached via %s)", key)
			}
			for _, s := range info.sources {
				if reported[s.pos] {
					continue
				}
				reported[s.pos] = true
				pass.Reportf(s.pos, "%s in deterministic function %s%s", s.reason, rootKey, via)
			}
			for _, c := range info.calls {
				if c.fn.Pkg() == pass.Pkg {
					ckey := funcKey(c.fn)
					if _, ok := infos[ckey]; ok && !visited[ckey] {
						visited[ckey] = true
						queue = append(queue, ckey)
					}
					continue
				}
				if reason, ok := lookup(c.fn); ok && !reported[c.pos] {
					reported[c.pos] = true
					pass.Reportf(c.pos, "call to %s is nondeterministic (%s) in deterministic function %s%s",
						funcDisplay(c.fn), reason, rootKey, via)
				}
			}
		}
	}
	return nil
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}

// funcKey renders a *types.Func as the fact key: "Func" for package
// functions, "Type.Method" for methods (pointer receivers included).
func funcKey(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.Underlying().(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// funcDisplay renders a callee for a diagnostic: pkg-qualified for
// imports, funcKey otherwise.
func funcDisplay(fn *types.Func) string {
	key := funcKey(fn)
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + key
	}
	return key
}

// collectCalls gathers the statically resolvable calls of the whole body,
// function literals included (a literal defined here runs this package's
// code; if the enclosing function is annotated, what the literal calls is
// part of the contract).
func collectCalls(pass *analysis.Pass, fd *ast.FuncDecl, info *funcInfo) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(pass.TypesInfo, call); fn != nil {
			info.calls = append(info.calls, callSite{pos: call.Pos(), fn: fn})
		}
		return true
	})
}

// --- direct sources ---------------------------------------------------------

// randConstructors are the math/rand(/v2) package functions that build
// seeded private generators instead of consuming the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func collectSources(pass *analysis.Pass, fd *ast.FuncDecl, info *funcInfo) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(st.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			if sortedKeysIdiom(pass, fd, st) {
				return true
			}
			info.sources = append(info.sources, source{
				pos:    st.Pos(),
				reason: "ranges over a map in nondeterministic key order (collect and sort the keys first)",
			})
		case *ast.SelectStmt:
			comms := 0
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms++
				}
			}
			if comms >= 2 {
				info.sources = append(info.sources, source{
					pos:    st.Pos(),
					reason: fmt.Sprintf("selects among %d comm clauses (the scheduler picks among ready cases)", comms),
				})
			}
		case *ast.CallExpr:
			fn := analysis.Callee(pass.TypesInfo, st)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			sig, _ := fn.Type().(*types.Signature)
			switch {
			case (path == "math/rand" || path == "math/rand/v2") &&
				sig != nil && sig.Recv() == nil && !randConstructors[fn.Name()]:
				info.sources = append(info.sources, source{
					pos:    st.Pos(),
					reason: fmt.Sprintf("consumes the global math/rand stream (rand.%s)", fn.Name()),
				})
			case path == "sync" && fn.Name() == "Range":
				info.sources = append(info.sources, source{
					pos:    st.Pos(),
					reason: "ranges over a sync.Map (nondeterministic iteration order)",
				})
			}
		}
		return true
	})

	// Time-taint: per body (the declaration's and each literal's), track
	// which locals derive from the wall clock and flag returns / non-local
	// stores of tainted values.
	timeTaint(pass, fd.Body, info)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			timeTaint(pass, lit.Body, info)
			return false
		}
		return true
	})
}

// sortedKeysIdiom recognizes the blessed map-range shape: the body only
// appends to local slice variables, and each such variable is sorted by a
// sort.* / slices.Sort* call later in the same function.
func sortedKeysIdiom(pass *analysis.Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	var targets []string
	for _, s := range rs.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		callExpr, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		fun, ok := ast.Unparen(callExpr.Fun).(*ast.Ident)
		if !ok || fun.Name != "append" {
			return false
		}
		targets = append(targets, id.Name)
	}
	if len(targets) == 0 {
		return false
	}
	sorted := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rs.End() || len(c.Args) == 0 {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, c)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		if !strings.HasPrefix(fn.Name(), "Sort") && !isSortByName(fn.Name()) {
			return true
		}
		if id, ok := ast.Unparen(c.Args[0]).(*ast.Ident); ok {
			sorted[id.Name] = true
		}
		return true
	})
	for _, t := range targets {
		if !sorted[t] {
			return false
		}
	}
	return true
}

// isSortByName covers the sort package's typed entry points (Strings,
// Ints, Float64s, Slice, SliceStable, Stable).
func isSortByName(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Stable":
		return true
	}
	return false
}

// --- time taint over the dataflow CFG ---------------------------------------

// taintSet is the dataflow state: locals holding a wall-clock-derived
// value. Join is union — tainted on any path means possibly tainted.
type taintSet map[string]bool

type taintLattice struct {
	pass *analysis.Pass
}

func (taintLattice) Entry() taintSet { return taintSet{} }

func (taintLattice) Join(a, b taintSet) taintSet {
	out := taintSet{}
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (taintLattice) Equal(a, b taintSet) bool {
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

func (l taintLattice) Transfer(b *dataflow.Block, in taintSet) taintSet {
	out := taintSet{}
	for k := range in {
		out[k] = true
	}
	for _, n := range b.Nodes {
		applyTaint(l.pass, out, n)
	}
	return out
}

// applyTaint advances the taint state across one block node: assignments
// taint (or clear) local idents; everything else is state-neutral.
func applyTaint(pass *analysis.Pass, state taintSet, n ast.Node) {
	switch st := n.(type) {
	case *ast.AssignStmt:
		oneToOne := len(st.Lhs) == len(st.Rhs)
		for i, lhs := range st.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			var tainted bool
			if oneToOne {
				tainted = exprTainted(pass, state, st.Rhs[i])
			} else {
				tainted = exprTainted(pass, state, st.Rhs[0])
			}
			if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
				// Compound (+=, etc.): taint persists once acquired.
				tainted = tainted || state[id.Name]
			}
			if tainted {
				state[id.Name] = true
			} else {
				delete(state, id.Name)
			}
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) && exprTainted(pass, state, vs.Values[i]) {
					state[name.Name] = true
				}
			}
		}
	case *ast.RangeStmt:
		// Ranging over a tainted aggregate taints the loop variables.
		if exprTainted(pass, state, st.X) {
			for _, e := range []ast.Expr{st.Key, st.Value} {
				if id, ok := e.(*ast.Ident); ok {
					state[id.Name] = true
				}
			}
		}
	}
}

// exprTainted reports whether e mentions a tainted local or calls a
// wall-clock source directly. Function literals are opaque.
func exprTainted(pass *analysis.Pass, state taintSet, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tainted := false
	dataflow.VisitBlockNode(e, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.Ident:
			if state[x.Name] {
				tainted = true
			}
		case *ast.CallExpr:
			if isTimeSource(pass, x) {
				tainted = true
			}
		}
		return !tainted
	})
	return tainted
}

func isTimeSource(pass *analysis.Pass, c *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, c)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// timeTaint solves the taint problem over one body's CFG and reports
// sinks: returning a tainted value, or storing one through a selector,
// index, or pointer (non-local memory). Calls are not sinks, which is
// what makes logging wall-clock durations legal.
func timeTaint(pass *analysis.Pass, body *ast.BlockStmt, info *funcInfo) {
	graph := dataflow.New(body)
	in := dataflow.Forward[taintSet](graph, taintLattice{pass: pass})
	for _, b := range graph.Blocks {
		state := taintSet{}
		for k := range in[b] {
			state[k] = true
		}
		for _, n := range b.Nodes {
			switch st := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range st.Results {
					if exprTainted(pass, state, res) {
						info.sources = append(info.sources, source{
							pos:    res.Pos(),
							reason: "returns a wall-clock-derived value (time.Now/Since feeds the result)",
						})
						break
					}
				}
			case *ast.AssignStmt:
				oneToOne := len(st.Lhs) == len(st.Rhs)
				for i, lhs := range st.Lhs {
					if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						continue
					}
					rhs := st.Rhs[0]
					if oneToOne {
						rhs = st.Rhs[i]
					}
					if exprTainted(pass, state, rhs) {
						info.sources = append(info.sources, source{
							pos:    st.Pos(),
							reason: "stores a wall-clock-derived value into shared state (time.Now/Since feeds the result)",
						})
						break
					}
				}
			case *ast.SendStmt:
				if exprTainted(pass, state, st.Value) {
					info.sources = append(info.sources, source{
						pos:    st.Pos(),
						reason: "sends a wall-clock-derived value (time.Now/Since feeds the result)",
					})
				}
			}
			applyTaint(pass, state, n)
		}
	}
	// Deduplicate: fixpoint iteration visits blocks once here, but a
	// return with several tainted results or repeated sinks in one block
	// stay single entries by position.
	dedupSources(info)
}

func dedupSources(info *funcInfo) {
	seen := map[token.Pos]bool{}
	var out []source
	for _, s := range info.sources {
		if seen[s.pos] {
			continue
		}
		seen[s.pos] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	info.sources = out
}
