// Package execpoll checks the engine's cancellation contract: every loop
// that expands nodes or reads pages must poll the query's execution context
// from inside the loop, so cancellation, deadlines and budgets take effect
// within one expansion step (the PR 3 contract every algorithm in
// internal/core and internal/hublabel follows).
//
// A loop is an expansion/page-read loop when its body calls one of the
// engine's paging or expansion primitives: graph adjacency fetches,
// materialized-list reads, hub-label fetches, buffer-pool page reads, or
// pops from the expansion heap/scratch. Such a loop must also call
// (*exec.Ctx).Check — directly or through the Searcher's checkExec /
// checkExecStride wrappers — somewhere in its body (a poll inside a nested
// loop counts: it runs at least as often as the outer iteration resumes).
//
// A loop is judged only where a poll is possible: its enclosing function
// must have an *exec.Ctx in scope — a parameter, a local, or a field of its
// receiver's or a parameter's struct (the Searcher.ec shape). A function
// that cannot poll (offline construction, a primitive's own record-chain
// walk, an in-memory drain) leaves the obligation with its callers, whose
// loops trigger on the primitive it wraps, and becomes subject again by
// itself the day it gains a Ctx. The exceptions left are loops that could
// poll and deliberately do not, annotated in place:
//
//	//lint:ignore vetrnn/execpoll <why this loop is exempt>
package execpoll

import (
	"go/ast"
	"go/types"

	"graphrnn/internal/analysis"
)

// Analyzer is the execpoll check.
var Analyzer = &analysis.Analyzer{
	Name:      "execpoll",
	Doc:       "expansion and page-read loops must poll the exec context (Check/checkExec) in the loop body",
	SkipTests: true,
	Run:       run,
}

// triggers are the paging/expansion primitives that make a loop subject to
// the polling contract, keyed by method name with the defining package's
// path suffix.
var triggers = map[string][]string{
	"Adjacency":  {"internal/graph"},
	"List":       {"internal/core"},
	"pop":        {"internal/core"},
	"InLabel":    {"internal/hublabel"},
	"OutLabel":   {"internal/hublabel"},
	"Get":        {"internal/storage"},
	"ReadRecord": {"internal/storage"},
	"Update":     {"internal/storage"},
	"Pop":        {"internal/pq"},
}

// loopInfo tracks one lexical loop during the walk.
type loopInfo struct {
	node    ast.Node
	parent  *loopInfo
	polled  bool
	trigger *ast.CallExpr // first uncovered trigger found in the body
}

func run(pass *analysis.Pass) error {
	var visit func(n ast.Node, innermost *loopInfo, canPoll bool)
	var done []*loopInfo

	visitChildren := func(n ast.Node, innermost *loopInfo, canPoll bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				visit(c, innermost, canPoll)
			}
			return false
		})
	}

	visit = func(n ast.Node, innermost *loopInfo, canPoll bool) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			visitChildren(n, nil, ctxInScope(pass.TypesInfo, n.Recv, n.Type, n.Body))
			return
		case *ast.FuncLit:
			// A closure runs on its own schedule; its loops are judged in
			// isolation, and its calls do not belong to the enclosing loop.
			// It sees every Ctx its definer sees.
			visitChildren(n, nil, canPoll || ctxInScope(pass.TypesInfo, nil, n.Type, n.Body))
			return
		case *ast.ForStmt, *ast.RangeStmt:
			// Where no poll can be written the loop is not tracked at all.
			if canPoll {
				li := &loopInfo{node: n, parent: innermost}
				visitChildren(n, li, canPoll)
				done = append(done, li)
				return
			}
		case *ast.CallExpr:
			if isPoll(pass, n) {
				for l := innermost; l != nil; l = l.parent {
					l.polled = true
				}
			} else if innermost != nil && innermost.trigger == nil && isTrigger(pass, n) {
				innermost.trigger = n
			}
		}
		visitChildren(n, innermost, canPoll)
	}

	for _, file := range pass.Files {
		visit(file, nil, false)
	}

	for _, li := range done {
		if li.trigger == nil {
			continue
		}
		covered := false
		for l := li; l != nil; l = l.parent {
			if l.polled {
				covered = true
				break
			}
		}
		if covered {
			continue
		}
		callee := analysis.Callee(pass.TypesInfo, li.trigger)
		pass.Reportf(li.node.Pos(),
			"loop expands nodes or reads pages (%s) without polling the exec context; call Check/checkExec in the loop body",
			callee.Name())
	}
	return nil
}

func isTrigger(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	for _, suffix := range triggers[fn.Name()] {
		if analysis.PathHasSuffix(fn.Pkg().Path(), suffix) {
			return true
		}
	}
	return false
}

func isPoll(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Name() == "Check" && analysis.PathHasSuffix(fn.Pkg().Path(), "internal/exec") {
		return true
	}
	// The Searcher's polling wrappers, and any future substrate's wrapper
	// following the same naming convention.
	return fn.Name() == "checkExec" || fn.Name() == "checkExecStride"
}

// ctxInScope reports whether a function can poll: an *exec.Ctx is a
// parameter or a local of it, or a field of its receiver's or of a
// parameter's struct. Nested closures are their own scopes.
func ctxInScope(info *types.Info, recv *ast.FieldList, typ *ast.FuncType, body *ast.BlockStmt) bool {
	for _, fields := range []*ast.FieldList{recv, typ.Params} {
		if fields == nil {
			continue
		}
		for _, f := range fields.List {
			t := info.TypeOf(f.Type)
			if isCtx(t) || holdsCtx(t) {
				return true
			}
		}
	}
	found := false
	if body != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.Ident:
				if v, ok := info.Defs[n].(*types.Var); ok && isCtx(v.Type()) {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// isCtx reports whether t is exec.Ctx or a pointer to it.
func isCtx(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Ctx" && named.Obj().Pkg() != nil &&
		analysis.PathHasSuffix(named.Obj().Pkg().Path(), "internal/exec")
}

// holdsCtx reports whether t is a struct (or a pointer to one) with a field
// of type *exec.Ctx.
func holdsCtx(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isCtx(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
