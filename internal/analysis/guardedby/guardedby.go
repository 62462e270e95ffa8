// Package guardedby checks declared mutex protocols: a struct field
// annotated
//
//	// vetrnn:guardedby <path>
//
// (trailing on the field line, or in the field's doc comment) may only be
// read while the named mutex is held and only written while it is held in
// write mode. <path> is a dot-separated chain of sibling field names
// resolving, through pointers, to a sync.Mutex or sync.RWMutex — "mu" for
// a same-struct mutex, "pool.mu" for a mutex owned by a referenced struct.
//
// The check is flow-sensitive at block granularity: each function body is
// lowered to the shared dataflow CFG, lock state (which mutexes are held,
// and in which half) is propagated through a forward fixpoint with
// intersection joins at merges, and every field access is checked against
// the state reaching its statement. A deferred Unlock keeps the mutex held
// to the end of the function, an early `return` under the lock no longer
// leaks its branch's Unlock into the fall-through path, and a lock taken
// on only one arm of a branch is correctly *not* held after the merge.
// Reads need at least the read half; writes need the write half — a write
// while only RLock is held is the distinct "publish under the read lock"
// diagnostic (the bug class PR 5's post-review hardening fixed by hand).
//
// Two escape valves keep the check honest instead of noisy:
//
//   - A function whose doc comment carries `// vetrnn:holds <expr>`
//     (optionally `<expr> read`) declares a lock precondition: the caller
//     holds that mutex, so the function body starts with it held. The
//     wildcard `// vetrnn:holds *` declares that the caller serializes
//     everything (the pool-internal helpers, where the one pool's mutex
//     guards every tenant reached through frame back-pointers).
//   - Accesses through a variable constructed in the same function
//     (x := T{...}, x := &T{...}, var x T, x := new(T)) are exempt: the
//     value has not escaped, so no lock can be required yet.
//
// Annotations are exported as a package fact, so a field declared in
// internal/storage is enforced wherever it is accessed.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"graphrnn/internal/analysis"
	"graphrnn/internal/analysis/dataflow"
)

// Analyzer is the guardedby check.
var Analyzer = &analysis.Analyzer{
	Name:      "guardedby",
	Doc:       "fields annotated vetrnn:guardedby <mutex> must be accessed with the mutex held (writes need the write half)",
	SkipTests: true,
	FactTypes: []analysis.Fact{new(GuardedFields)},
	Run:       run,
}

// GuardedFields is the package fact carrying a package's guardedby
// annotations to its importers: "TypeName.field" -> guard path relative to
// the struct.
type GuardedFields struct {
	Fields map[string]string `json:"fields"`
}

// AFact marks GuardedFields as a fact type.
func (*GuardedFields) AFact() {}

const (
	guardMarker = "vetrnn:guardedby"
	holdsMarker = "vetrnn:holds"
)

func run(pass *analysis.Pass) error {
	annots := collectAnnotations(pass)
	if len(annots) > 0 {
		if err := pass.ExportPackageFact(&GuardedFields{Fields: annots}); err != nil {
			return err
		}
	}
	g := &guards{pass: pass, byPkg: map[string]*GuardedFields{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScope(pass, g, fd.Body, holdsOf(fd.Doc))
		}
	}
	return nil
}

// --- annotation collection --------------------------------------------------

// collectAnnotations scans struct declarations for vetrnn:guardedby field
// annotations, validates each guard path against the struct's types, and
// returns the package's "Type.field" -> path table.
func collectAnnotations(pass *analysis.Pass) map[string]string {
	out := map[string]string{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			var styp *types.Struct
			if obj != nil {
				styp, _ = obj.Type().Underlying().(*types.Struct)
			}
			for _, field := range st.Fields.List {
				path, ok := fieldAnnotation(field)
				if !ok {
					continue
				}
				if len(field.Names) == 0 {
					pass.Reportf(field.Pos(), "vetrnn:guardedby on an embedded field is not supported; name the field")
					continue
				}
				if styp == nil || !resolveGuardPath(styp, strings.Split(path, ".")) {
					pass.Reportf(field.Pos(),
						"vetrnn:guardedby %q does not resolve to a sync.Mutex/RWMutex through sibling fields of %s",
						path, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					out[ts.Name.Name+"."+name.Name] = path
				}
			}
			return true
		})
	}
	return out
}

// fieldAnnotation extracts the guard path from a field's doc or trailing
// comment.
func fieldAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if i := strings.Index(c.Text, guardMarker); i >= 0 {
				rest := strings.TrimSpace(c.Text[i+len(guardMarker):])
				path, _, _ := strings.Cut(rest, " ")
				if path != "" {
					return path, true
				}
			}
		}
	}
	return "", false
}

// resolveGuardPath walks path through st's fields (dereferencing
// pointers), requiring the final component to be a sync.Mutex or
// sync.RWMutex.
func resolveGuardPath(st *types.Struct, path []string) bool {
	cur := st
	for i, comp := range path {
		var f *types.Var
		for j := 0; j < cur.NumFields(); j++ {
			if cur.Field(j).Name() == comp {
				f = cur.Field(j)
				break
			}
		}
		if f == nil {
			return false
		}
		t := f.Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if i == len(path)-1 {
			return isMutex(t)
		}
		next, ok := t.Underlying().(*types.Struct)
		if !ok {
			return false
		}
		cur = next
	}
	return false
}

func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}

// --- cross-package guard lookup ---------------------------------------------

// guards resolves a field access to its guard path via package facts
// (which cover the current package too — its annotations were exported
// before enforcement began).
type guards struct {
	pass  *analysis.Pass
	byPkg map[string]*GuardedFields
}

// guardOf returns the guard path of the field a selection resolves to.
func (g *guards) guardOf(sel *types.Selection) (string, bool) {
	if sel.Kind() != types.FieldVal {
		return "", false
	}
	rt := sel.Recv()
	if p, ok := rt.Underlying().(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	pkgPath := named.Obj().Pkg().Path()
	facts, ok := g.byPkg[pkgPath]
	if !ok {
		facts = new(GuardedFields)
		if !g.pass.ImportPackageFact(pkgPath, facts) {
			facts = nil
		}
		g.byPkg[pkgPath] = facts
	}
	if facts == nil {
		return "", false
	}
	path, ok := facts.Fields[named.Obj().Name()+"."+sel.Obj().Name()]
	return path, ok
}

// --- per-scope replay -------------------------------------------------------

// holdsOf parses the vetrnn:holds preconditions of a function doc comment:
// each returns (expr, mode) where mode is lockWrite unless the line ends
// in "read", and expr "*" write-holds everything.
func holdsOf(doc *ast.CommentGroup) [][2]string {
	if doc == nil {
		return nil
	}
	var out [][2]string
	for _, c := range doc.List {
		i := strings.Index(c.Text, holdsMarker)
		if i < 0 {
			continue
		}
		rest := strings.TrimSpace(c.Text[i+len(holdsMarker):])
		expr, mode, _ := strings.Cut(rest, " ")
		if expr == "" {
			continue
		}
		if strings.TrimSpace(mode) == "read" {
			out = append(out, [2]string{expr, "read"})
		} else {
			out = append(out, [2]string{expr, "write"})
		}
	}
	return out
}

// Lock modes.
const (
	lockNone = iota
	lockRead
	lockWrite
)

// lockState is one dataflow state: held mutex chain -> mode (lockRead or
// lockWrite; absent means not held). The key "*" is the vetrnn:holds
// wildcard: everything write-held by the caller.
type lockState map[string]int

// scopeInfo is the flow-insensitive context of one function body: write
// positions, deferred calls, selector-chain aliases, and locally
// constructed (not-yet-escaped) variables. Aliases and constructions are
// resolved lexically — Go's define-before-use makes that sound for the
// shapes this analyzer names.
type scopeInfo struct {
	pass        *analysis.Pass
	writes      map[ast.Expr]bool
	deferred    map[token.Pos]bool
	aliases     map[string]string
	constructed map[string]bool
	lits        []*ast.FuncLit
	escaping    map[*ast.FuncLit]bool
}

// expand rewrites the leading component of a selector chain through the
// scope's alias table ("p.mu" -> "t.pool.mu" after p := t.pool).
func (s *scopeInfo) expand(expr string) string {
	first, rest, cut := strings.Cut(expr, ".")
	if to, ok := s.aliases[first]; ok {
		if cut {
			return to + "." + rest
		}
		return to
	}
	return expr
}

// applyLockOp interprets one call against state, in place, if it is a mutex
// Lock/RLock/Unlock/RUnlock. Deferred calls are skipped: a deferred Unlock
// keeps the mutex held to the end of the function.
func (s *scopeInfo) applyLockOp(state lockState, call *ast.CallExpr) {
	kind, mexpr, ok := lockOp(s.pass, call)
	if !ok || s.deferred[call.Pos()] {
		return
	}
	key := s.expand(mexpr)
	switch kind {
	case "lock":
		state[key] = lockWrite
	case "rlock":
		state[key] = lockRead
	case "unlock", "runlock":
		delete(state, key)
	}
}

// collectScopeInfo walks one body (FuncLit subtrees excluded) and gathers
// the lexical context the lock-state lattice and the reporting pass share.
func collectScopeInfo(pass *analysis.Pass, body *ast.BlockStmt) *scopeInfo {
	s := &scopeInfo{
		pass:        pass,
		writes:      map[ast.Expr]bool{},
		deferred:    map[token.Pos]bool{},
		aliases:     map[string]string{},
		constructed: map[string]bool{},
		escaping:    map[*ast.FuncLit]bool{},
	}
	markWrite := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				s.writes[e] = true
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			s.lits = append(s.lits, st)
			return false
		case *ast.GoStmt:
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				s.escaping[lit] = true
			}
		case *ast.DeferStmt:
			s.deferred[st.Call.Pos()] = true
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				s.escaping[lit] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				markWrite(lhs)
			}
			// x := <selector chain> records an alias; x := T{...} (& co)
			// records a construction.
			if st.Tok == token.DEFINE && len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					rhs := ast.Unparen(st.Rhs[i])
					if target, ok := chainOf(rhs); ok && strings.Contains(target, ".") {
						s.aliases[id.Name] = s.expand(target)
					} else if isConstruction(rhs) {
						s.constructed[id.Name] = true
					}
				}
			}
		case *ast.IncDecStmt:
			markWrite(st.X)
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				markWrite(st.X)
			}
		case *ast.RangeStmt:
			if st.Key != nil {
				markWrite(st.Key)
			}
			if st.Value != nil {
				markWrite(st.Value)
			}
		case *ast.DeclStmt:
			// var x T is a construction too.
			if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != 0 {
						continue
					}
					for _, name := range vs.Names {
						s.constructed[name.Name] = true
					}
				}
			}
		}
		return true
	})
	// escaping above only marks go lit(){} / defer lit(){} where the
	// literal is the call target; nested literals inside other literals
	// are handled when their encloser recurses.
	return s
}

// lockLattice is the guardedby dataflow domain over lockState.
type lockLattice struct {
	info  *scopeInfo
	holds [][2]string
}

func (l lockLattice) Entry() lockState {
	state := lockState{}
	for _, h := range l.holds {
		mode := lockWrite
		if h[1] == "read" {
			mode = lockRead
		}
		state[h[0]] = mode
	}
	return state
}

// Join intersects: a mutex is held after a merge only if every incoming
// path holds it, and only as strongly as the weakest path.
func (lockLattice) Join(a, b lockState) lockState {
	out := lockState{}
	for k, ma := range a {
		if mb, ok := b[k]; ok {
			if mb < ma {
				out[k] = mb
			} else {
				out[k] = ma
			}
		}
	}
	return out
}

func (lockLattice) Equal(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if b[k] != m {
			return false
		}
	}
	return true
}

func (l lockLattice) Transfer(b *dataflow.Block, in lockState) lockState {
	out := lockState{}
	for k, m := range in {
		out[k] = m
	}
	for _, n := range b.Nodes {
		dataflow.VisitBlockNode(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				l.info.applyLockOp(out, call)
			}
			return true
		})
	}
	return out
}

// checkScope analyzes one function body (FuncDecls and each FuncLit in
// isolation — a closure runs on its own schedule and cannot inherit the
// definer's lock state). The one thing a synchronous closure can inherit
// is the enclosing declaration's documented vetrnn:holds contract: a
// predicate or visitor literal runs on its definer's stack under the same
// caller-held locks. Literals launched by go or defer do not inherit —
// those run after the definer may have unlocked.
//
// The body is lowered to a CFG, lock state is solved to a fixpoint, and a
// final replay of each block from its solved input state checks every
// guarded access against the state actually reaching it.
func checkScope(pass *analysis.Pass, g *guards, body *ast.BlockStmt, holds [][2]string) {
	info := collectScopeInfo(pass, body)
	graph := dataflow.New(body)
	lat := lockLattice{info: info, holds: holds}
	in := dataflow.Forward[lockState](graph, lat)

	for _, b := range graph.Blocks {
		state := lockState{}
		for k, m := range in[b] {
			state[k] = m
		}
		for _, n := range b.Nodes {
			checkNode(pass, g, info, state, n)
		}
	}

	for _, lit := range info.lits {
		inherited := holds
		if info.escaping[lit] {
			inherited = nil
		}
		checkScope(pass, g, lit.Body, inherited)
	}
}

// checkNode replays one block node: guarded accesses are checked against
// state, and lock operations advance it — both in source order within the
// node's subtree.
func checkNode(pass *analysis.Pass, g *guards, info *scopeInfo, state lockState, n ast.Node) {
	dataflow.VisitBlockNode(n, func(m ast.Node) bool {
		switch st := m.(type) {
		case *ast.CallExpr:
			info.applyLockOp(state, st)
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[st]
			if !ok {
				return true
			}
			guard, ok := g.guardOf(sel)
			if !ok {
				return true
			}
			base, ok := chainOf(st.X)
			if !ok {
				// The receiver is not a plain selector chain (a call
				// result, an index...); the mutex cannot be named, so the
				// access is skipped — the documented contract.
				return true
			}
			base = info.expand(base)
			if info.constructed[strings.SplitN(base, ".", 2)[0]] {
				return true
			}
			required := base + "." + guard
			held := state[required]
			if state["*"] > held {
				held = state["*"]
			}
			switch {
			case held == lockNone:
				pass.Reportf(st.Pos(),
					"access to %s.%s is guarded by %s, which is not held here (no Lock/RLock precedes it; annotate the caller contract with vetrnn:holds if the lock is taken upstream)",
					base, sel.Obj().Name(), required)
			case held == lockRead && info.writes[st]:
				pass.Reportf(st.Pos(),
					"write to %s.%s under RLock of %s; publishing through the read half needs the write lock (or an atomic field)",
					base, sel.Obj().Name(), required)
			}
		}
		return true
	})
}

// chainOf renders a pure ident/selector chain ("t.pool.mu"); it fails on
// anything else (calls, indexes, conversions).
func chainOf(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := chainOf(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// isConstruction reports expressions that build a fresh value: composite
// literals, &composite, new(T).
func isConstruction(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// lockOp classifies a sync.Mutex / sync.RWMutex method call, returning the
// event kind and the mutex's selector chain.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (string, string, bool) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	var kind string
	switch fn.Name() {
	case "Lock":
		kind = "lock"
	case "RLock":
		kind = "rlock"
	case "Unlock":
		kind = "unlock"
	case "RUnlock":
		kind = "runlock"
	default:
		return "", "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	mexpr, ok := chainOf(sel.X)
	if !ok {
		return "", "", false
	}
	return kind, mexpr, true
}
