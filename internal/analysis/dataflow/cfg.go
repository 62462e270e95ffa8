// Package dataflow is the block-level analysis core the fact-powered
// analyzers (guardedby, determinism) share: a control-flow graph built
// from a function body's AST, and a forward worklist solver over a reusable
// lattice interface.
//
// The CFG is intraprocedural and syntactic — no SSA, no call graph. Each
// basic block holds a maximal straight-line run of "atomic" AST nodes:
// plain statements plus the bare condition/tag expressions of the control
// statements that split flow. Function literals are opaque expressions
// (a closure runs on its own schedule; analyzers recurse into literals
// explicitly, exactly as the lexical replay used to), and a call to the
// panic builtin terminates its block like a return.
//
// The solver (Forward) iterates transfer functions to a fixpoint with
// states joined at control-flow merges. That is precisely what lexical
// replay could not do: an early `return` under a lock no longer leaks its
// branch's Unlock into the fall-through path, and a lock taken on only
// one arm of a branch no longer counts as held after the merge.
package dataflow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks (construction order;
	// the entry block is index 0).
	Index int
	// Nodes are the block's AST nodes in source order: plain statements,
	// and the condition/tag/comm expressions of control statements.
	Nodes []ast.Node
	// Succs are the control-flow successors.
	Succs []*Block
	// Preds are the control-flow predecessors.
	Preds []*Block
}

// Graph is the CFG of one function body.
type Graph struct {
	// Entry is the block control enters through.
	Entry *Block
	// Blocks lists every block in construction order. Blocks unreachable
	// from Entry (code after a return, an unused labeled break target)
	// stay in the list with no predecessors.
	Blocks []*Block
}

// New builds the CFG of body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{}
	b.graph = &Graph{}
	entry := b.newBlock()
	b.graph.Entry = entry
	b.cur = entry
	b.stmtList(body.List)
	return b.graph
}

// builder carries the construction state.
type builder struct {
	graph *Graph
	// cur is the block statements append to; nil after a terminator
	// (return, break, panic) until the next statement opens a fresh —
	// unreachable — block.
	cur *Block
	// targets stacks the jump targets of the enclosing loops/switches.
	targets []target
	// labels maps label names to their pending jump targets.
	labels map[string]*labelInfo
	// pendingLabel hands a label down to the loop/switch statement it
	// names, so labeled break/continue resolve to that construct.
	pendingLabel string
}

// target is one enclosing breakable/continuable construct.
type target struct {
	label      string // enclosing label, if the construct is labeled
	breakTo    *Block
	continueTo *Block // nil for switch/select (not continuable)
}

// labelInfo resolves goto/labeled-branch targets.
type labelInfo struct {
	// block is the labeled statement's block (goto target), once built.
	block *Block
	// pending are blocks that issued `goto label` before the label was
	// seen; they are patched when the label's block materializes.
	pending []*Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.graph.Blocks)}
	b.graph.Blocks = append(b.graph.Blocks, blk)
	return blk
}

// current returns the block to append to, opening an unreachable block
// when flow was terminated.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.current()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(st.List)

	case *ast.IfStmt:
		b.add(st.Init)
		b.add(st.Cond)
		cond := b.current()
		b.cur = nil
		done := b.newBlock()

		thenB := b.newBlock()
		edge(cond, thenB)
		b.cur = thenB
		b.stmtList(st.Body.List)
		edge(b.cur, done)

		if st.Else != nil {
			elseB := b.newBlock()
			edge(cond, elseB)
			b.cur = elseB
			b.stmt(st.Else)
			edge(b.cur, done)
		} else {
			edge(cond, done)
		}
		b.cur = done

	case *ast.ForStmt:
		b.add(st.Init)
		head := b.newBlock()
		edge(b.cur, head)
		b.cur = head
		b.add(st.Cond)
		done := b.newBlock()
		if st.Cond != nil {
			edge(head, done)
		}
		post := head
		if st.Post != nil {
			post = b.newBlock()
		}
		body := b.newBlock()
		edge(head, body)
		b.cur = body
		b.pushTarget(target{breakTo: done, continueTo: post})
		b.stmtList(st.Body.List)
		b.popTarget()
		if st.Post != nil {
			edge(b.cur, post)
			b.cur = post
			b.add(st.Post)
			edge(post, head)
		} else {
			edge(b.cur, head)
		}
		b.cur = done

	case *ast.RangeStmt:
		head := b.newBlock()
		edge(b.cur, head)
		b.cur = head
		// The RangeStmt node itself carries X/Key/Value; transfer
		// functions see it once per head visit.
		b.add(st)
		done := b.newBlock()
		edge(head, done)
		body := b.newBlock()
		edge(head, body)
		b.cur = body
		b.pushTarget(target{breakTo: done, continueTo: head})
		b.stmtList(st.Body.List)
		b.popTarget()
		edge(b.cur, head)
		b.cur = done

	case *ast.SwitchStmt:
		b.add(st.Init)
		b.add(st.Tag)
		b.caseClauses(st.Body.List, switchBodies(st.Body.List))

	case *ast.TypeSwitchStmt:
		b.add(st.Init)
		b.add(st.Assign)
		b.caseClauses(st.Body.List, switchBodies(st.Body.List))

	case *ast.SelectStmt:
		head := b.current()
		b.cur = nil
		done := b.newBlock()
		lbl := b.takeLabel()
		var ends []*Block
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			clause := b.newBlock()
			edge(head, clause)
			b.cur = clause
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.targets = append(b.targets, target{label: lbl, breakTo: done})
			b.stmtList(cc.Body)
			b.popTarget()
			ends = append(ends, b.cur)
		}
		for _, e := range ends {
			edge(e, done)
		}
		if len(st.Body.List) == 0 {
			// select {} blocks forever: no successor.
			b.cur = nil
			return
		}
		b.cur = done

	case *ast.LabeledStmt:
		// The labeled statement opens a fresh block so goto can target it.
		lblock := b.newBlock()
		edge(b.cur, lblock)
		b.cur = lblock
		li := b.label(st.Label.Name)
		li.block = lblock
		for _, p := range li.pending {
			edge(p, lblock)
		}
		li.pending = nil
		// A label enclosing a loop/switch names it for labeled
		// break/continue: push the label so the construct claims it.
		b.pendingLabel = st.Label.Name
		b.stmt(st.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		cur := b.current()
		switch st.Tok {
		case token.BREAK:
			if t := b.findTarget(st.Label, true); t != nil {
				edge(cur, t.breakTo)
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findTarget(st.Label, false); t != nil {
				edge(cur, t.continueTo)
			}
			b.cur = nil
		case token.GOTO:
			li := b.label(st.Label.Name)
			if li.block != nil {
				edge(cur, li.block)
			} else {
				li.pending = append(li.pending, cur)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by caseClauses (the clause end falls into the next
			// clause body); nothing to do here.
		}

	case *ast.ReturnStmt:
		b.add(st)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(st)
		if isPanic(st.X) {
			b.cur = nil
		}

	case nil:
		// nothing

	default:
		// Assign, Decl, IncDec, Send, Go, Defer, Empty: plain nodes.
		b.add(s)
	}
}

// caseClauses builds the shared switch/type-switch shape: the tag block
// branches to every clause body (clauses run at most one body), with
// fallthrough wiring clause i's end into clause i+1's body.
func (b *builder) caseClauses(clauses []ast.Stmt, bodies []*ast.CaseClause) {
	head := b.current()
	b.cur = nil
	done := b.newBlock()
	lbl := b.takeLabel()
	hasDefault := false
	blocks := make([]*Block, len(bodies))
	for i := range bodies {
		blocks[i] = b.newBlock()
	}
	for i, cc := range bodies {
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			// Case expressions evaluate on the head's path.
			head.Nodes = append(head.Nodes, e)
		}
		edge(head, blocks[i])
		b.cur = blocks[i]
		b.targets = append(b.targets, target{label: lbl, breakTo: done})
		b.stmtList(cc.Body)
		b.popTarget()
		if fallsThrough(cc.Body) && i+1 < len(blocks) {
			edge(b.cur, blocks[i+1])
			b.cur = nil
			continue
		}
		edge(b.cur, done)
	}
	if !hasDefault {
		edge(head, done)
	}
	b.cur = done
}

func switchBodies(list []ast.Stmt) []*ast.CaseClause {
	out := make([]*ast.CaseClause, 0, len(list))
	for _, s := range list {
		if cc, ok := s.(*ast.CaseClause); ok {
			out = append(out, cc)
		}
	}
	return out
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushTarget(t target) {
	t.label = b.takeLabel()
	b.targets = append(b.targets, t)
}

// takeLabel consumes the label handed down by an enclosing LabeledStmt.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) popTarget() { b.targets = b.targets[:len(b.targets)-1] }

// findTarget resolves break (wantBreak) or continue to an enclosing
// construct, honoring labels; continue skips non-continuable targets.
func (b *builder) findTarget(label *ast.Ident, wantBreak bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if !wantBreak && t.continueTo == nil {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

func (b *builder) label(name string) *labelInfo {
	if b.labels == nil {
		b.labels = map[string]*labelInfo{}
	}
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// isPanic reports a direct call to the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
