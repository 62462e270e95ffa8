// Package tenantclose checks the buffer-pool tenant lifecycle: a type that
// holds a tenant handle (a *storage.Tenant field,
// or a field of another holder type) must release it — every
// BufferPool.Attach needs a reachable Detach, the invariant the PR-3
// PagedEdgePoints leak violated.
//
// A struct with a tenant-holding field must declare a releasing method
// (Close, close, Detach, Release, Shutdown or Stop) that releases every
// such field:
//
//   - a releasing call rooted at the field — h.bm.Detach(), h.mat.Close(),
//     h.db.disk.Buffer().Detach() (intermediate method calls are fine);
//   - or, for slices/maps of holders, a releasing call on the variable of
//     a `for … range recv.f` loop — for _, h := range s.handles { h.close() }.
//
// A release under `defer` counts on every path; otherwise a `return`
// lexically before the first release of a field is flagged as a leaking
// early exit — exactly the error-path shape that leaked PagedEdgePoints'
// tenant.
//
// Holder-ness is transitive: a type whose field is itself a holder (same
// package, resolved by fixpoint; other packages, resolved through the
// exported Holders fact) carries the obligation too, discharged by calling
// any releaser of the inner holder. Diagnostics for missing releases sit
// on the holding field, so a deliberate exception is one field-level
// //lint:ignore with a reason (the pool's own back-pointers are the
// canonical case).
package tenantclose

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"graphrnn/internal/analysis"
)

// Analyzer is the tenantclose check.
var Analyzer = &analysis.Analyzer{
	Name:      "tenantclose",
	Doc:       "types holding buffer-pool tenants must release them in a Close/Detach method on all exits",
	SkipTests: true,
	FactTypes: []analysis.Fact{new(Holders)},
	Run:       run,
}

// Holders is the package fact naming a package's tenant-holding types:
// type name -> the fields that hold tenants and the methods that release
// all of them. Importers use it to treat fields of these types as tenant
// obligations of their own.
type Holders struct {
	Types map[string]HolderInfo `json:"types"`
}

// HolderInfo describes one holder type.
type HolderInfo struct {
	Fields    []string `json:"fields"`
	Releasers []string `json:"releasers"`
}

// AFact marks Holders as a fact type.
func (*Holders) AFact() {}

// releaserNames are method names eligible to discharge a release
// obligation, both as the method a holder must declare and as the final
// call that performs a release.
var releaserNames = map[string]bool{
	"Close": true, "close": true,
	"Detach": true, "detach": true,
	"Release": true, "release": true,
	"Shutdown": true, "Stop": true,
}

// structDecl is one struct type declaration with its syntax, for
// field-positioned diagnostics.
type structDecl struct {
	name   string
	fields []*ast.Field // parallel to fieldNames
	names  []string
	types  []types.Type
}

// release records where a method releases one receiver-rooted field.
type release struct {
	pos      token.Pos
	deferred bool
}

// methodScan is the syntax summary of one candidate releasing method.
type methodScan struct {
	name     string
	released map[string]release // receiver field name -> first release
	returns  []retStmt          // non-final return statements
}

// retStmt is a non-final return plus the receiver fields mentioned in
// enclosing if conditions — the `if recv.f == nil { return }` guard of an
// idempotent Close is not a leaking early exit for f.
type retStmt struct {
	pos     token.Pos
	guarded map[string]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, byPkg: map[string]*Holders{}}

	var structs []structDecl
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
			sd := structDecl{name: ts.Name.Name}
			for _, field := range st.Fields.List {
				ftype := pass.TypesInfo.TypeOf(field.Type)
				if ftype == nil {
					continue
				}
				if len(field.Names) == 0 {
					sd.fields = append(sd.fields, field)
					sd.names = append(sd.names, embeddedName(ftype))
					sd.types = append(sd.types, ftype)
					continue
				}
				for _, name := range field.Names {
					sd.fields = append(sd.fields, field)
					sd.names = append(sd.names, name.Name)
					sd.types = append(sd.types, ftype)
				}
			}
			structs = append(structs, sd)
			return true
		})
	}

	// Candidate releasing methods, scanned once, independent of which
	// fields turn out to be obligations.
	scans := map[string][]methodScan{} // receiver type name -> scans
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !releaserNames[fd.Name.Name] {
				continue
			}
			tname := recvTypeName(fd)
			if tname == "" {
				continue
			}
			scans[tname] = append(scans[tname], scanMethod(fd))
		}
	}

	// Fixpoint over intra-package holder nesting: a field of a local
	// holder type (that has at least one releaser, so the obligation is
	// dischargeable) is itself an obligation.
	local := map[string]HolderInfo{}
	for changed := true; changed; {
		changed = false
		for _, sd := range structs {
			var obligated []string
			for i, ft := range sd.types {
				if sd.names[i] != "" && c.holdsTenant(ft, local) {
					obligated = append(obligated, sd.names[i])
				}
			}
			if len(obligated) == 0 {
				continue
			}
			var releasers []string
			for _, ms := range scans[sd.name] {
				all := true
				for _, f := range obligated {
					if _, ok := ms.released[f]; !ok {
						all = false
						break
					}
				}
				if all {
					releasers = append(releasers, ms.name)
				}
			}
			sort.Strings(releasers)
			sort.Strings(obligated)
			prev, had := local[sd.name]
			next := HolderInfo{Fields: obligated, Releasers: releasers}
			if !had || !sameInfo(prev, next) {
				local[sd.name] = next
				changed = true
			}
		}
	}

	// Diagnostics.
	for _, sd := range structs {
		info, ok := local[sd.name]
		if !ok {
			continue
		}
		obligated := map[string]bool{}
		for _, f := range info.Fields {
			obligated[f] = true
		}
		for i, field := range sd.fields {
			fname := sd.names[i]
			if !obligated[fname] {
				continue
			}
			if len(scans[sd.name]) == 0 {
				pass.Reportf(field.Pos(),
					"%s holds a buffer-pool tenant in field %s but has no releasing method (Close/Detach/...); every Attach needs a reachable Detach",
					sd.name, fname)
				continue
			}
			released := false
			for _, ms := range scans[sd.name] {
				if _, ok := ms.released[fname]; ok {
					released = true
					break
				}
			}
			if !released {
				pass.Reportf(field.Pos(),
					"no releasing method of %s releases tenant field %s; every Attach needs a reachable Detach",
					sd.name, fname)
			}
		}
		// Early exits: a non-final return before a field's first
		// non-deferred release leaks the tenant on that path.
		for _, ms := range scans[sd.name] {
			for _, f := range info.Fields {
				rel, ok := ms.released[f]
				if !ok || rel.deferred {
					continue
				}
				for _, ret := range ms.returns {
					if ret.pos < rel.pos && !ret.guarded[f] {
						pass.Reportf(ret.pos,
							"%s.%s returns before releasing tenant field %s (and the release is not deferred); the tenant leaks on this path",
							sd.name, ms.name, f)
					}
				}
			}
		}
	}

	if len(local) > 0 {
		fact := &Holders{Types: local}
		if err := pass.ExportPackageFact(fact); err != nil {
			return err
		}
	}
	return nil
}

func sameInfo(a, b HolderInfo) bool {
	if len(a.Fields) != len(b.Fields) || len(a.Releasers) != len(b.Releasers) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	for i := range a.Releasers {
		if a.Releasers[i] != b.Releasers[i] {
			return false
		}
	}
	return true
}

type checker struct {
	pass  *analysis.Pass
	byPkg map[string]*Holders
}

// holdsTenant reports whether a field of type t creates a release
// obligation: the tenant type itself, a holder type (same package via the
// in-progress local table, other packages via facts — in either case only
// if dischargeable, i.e. it has a releaser), or a container of either.
func (c *checker) holdsTenant(t types.Type, local map[string]HolderInfo) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return c.holdsTenant(u.Elem(), local)
	case *types.Slice:
		return c.holdsTenant(u.Elem(), local)
	case *types.Array:
		return c.holdsTenant(u.Elem(), local)
	case *types.Map:
		return c.holdsTenant(u.Elem(), local)
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	if name == "Tenant" && analysis.PathHasSuffix(pkg, "storage") {
		return true
	}
	if pkg == c.pass.Pkg.Path() {
		info, ok := local[name]
		return ok && len(info.Releasers) > 0
	}
	info, ok := c.holderInfo(pkg, name)
	return ok && len(info.Releasers) > 0
}

// holderInfo looks up a type in the imported holder facts.
func (c *checker) holderInfo(pkgPath, typeName string) (HolderInfo, bool) {
	facts, ok := c.byPkg[pkgPath]
	if !ok {
		facts = new(Holders)
		if !c.pass.ImportPackageFact(pkgPath, facts) {
			facts = nil
		}
		c.byPkg[pkgPath] = facts
	}
	if facts == nil {
		return HolderInfo{}, false
	}
	info, ok := facts.Types[typeName]
	return info, ok
}

// scanMethod summarizes one candidate releasing method: which
// receiver-rooted fields it releases (and where), and its non-final
// return statements.
func scanMethod(fd *ast.FuncDecl) methodScan {
	recv := recvName(fd)
	ms := methodScan{name: fd.Name.Name, released: map[string]release{}}
	// handles maps local variables standing in for a receiver field: the
	// value of `for _, h := range recv.f` and the local copy of the
	// idempotent-close idiom (`bm := recv.f; recv.f = nil; bm.Detach()`).
	handles := map[string]string{}

	record := func(f string, pos token.Pos, deferred bool) {
		if prev, ok := ms.released[f]; ok && (prev.deferred || !deferred && prev.pos <= pos) {
			return
		}
		ms.released[f] = release{pos: pos, deferred: deferred}
	}

	// ifGuards tracks, per enclosing if statement still covering the
	// current preorder position, the receiver fields its condition
	// mentions.
	type ifGuard struct {
		end    token.Pos
		fields map[string]bool
	}
	var ifGuards []ifGuard

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IfStmt:
			fields := map[string]bool{}
			condFields(st.Cond, recv, handles, fields)
			if len(fields) > 0 {
				ifGuards = append(ifGuards, ifGuard{end: st.End(), fields: fields})
			}
		case *ast.RangeStmt:
			if f, ok := fieldRoot(st.X, recv); ok {
				if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
					handles[id.Name] = f
				} else if id, ok := st.Key.(*ast.Ident); ok && id.Name != "_" {
					handles[id.Name] = f
				}
			}
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE && len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if f, ok := fieldRoot(st.Rhs[i], recv); ok {
						handles[id.Name] = f
					}
				}
			}
		case *ast.DeferStmt:
			if f, ok := releasingCall(st.Call, recv, handles); ok {
				record(f, st.Call.Pos(), true)
			}
		case *ast.CallExpr:
			if f, ok := releasingCall(st, recv, handles); ok {
				record(f, st.Pos(), false)
			}
		case *ast.ReturnStmt:
			if st.End() < lastStmtEnd(fd.Body) {
				guarded := map[string]bool{}
				for _, g := range ifGuards {
					if st.Pos() < g.end {
						for f := range g.fields {
							guarded[f] = true
						}
					}
				}
				ms.returns = append(ms.returns, retStmt{pos: st.Pos(), guarded: guarded})
			}
		}
		return true
	})
	return ms
}

// condFields collects the receiver fields (directly or through handles) an
// if condition mentions.
func condFields(cond ast.Expr, recv string, handles map[string]string, out map[string]bool) {
	ast.Inspect(cond, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && id.Name == recv {
				out[x.Sel.Name] = true
				return false
			}
		case *ast.Ident:
			if f, ok := handles[x.Name]; ok {
				out[f] = true
			}
		}
		return true
	})
}

// releasingCall reports which receiver field a call releases: the final
// method name must be a releaser and the receiver chain must root at
// recv.<field> (through any mix of selections, calls, indexes) or at a
// handle variable standing in for such a field.
func releasingCall(call *ast.CallExpr, recv string, handles map[string]string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !releaserNames[sel.Sel.Name] {
		return "", false
	}
	if f, ok := fieldRoot(sel.X, recv); ok {
		return f, true
	}
	if id, ok := rootIdent(sel.X); ok {
		if f, ok := handles[id]; ok {
			return f, true
		}
	}
	return "", false
}

// fieldRoot returns the first field selected off the receiver in a chain
// like recv.f, recv.f.x, recv.f.Buffer(), recv.f[i], *recv.f.
func fieldRoot(e ast.Expr, recv string) (string, bool) {
	if recv == "" {
		return "", false
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if id.Name == recv {
					return x.Sel.Name, true
				}
				return "", false
			}
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// rootIdent returns the leftmost identifier of a selector/call chain.
func rootIdent(e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func recvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		return fd.Recv.List[0].Names[0].Name
	}
	return ""
}

func embeddedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// lastStmtEnd returns the end position of the body's final statement; a
// return ending there is the function's normal exit, exempt from the
// early-exit check (not releasing at all is the other diagnostic).
func lastStmtEnd(body *ast.BlockStmt) token.Pos {
	if len(body.List) == 0 {
		return body.End()
	}
	return body.List[len(body.List)-1].End()
}
