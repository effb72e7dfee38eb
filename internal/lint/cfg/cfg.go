// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and layers the dataflow machinery the analyzers in
// internal/lint need: reaching definitions over go/types objects
// (reach.go), and the call graph and summary fixpoint of the
// interprocedural analyses (callgraph.go, summary.go). Like the rest of
// internal/lint it is stdlib-only; it is the piece
// golang.org/x/tools/go/cfg + go/ssa would normally provide, rebuilt small
// enough to audit and without the external module.
//
// The graph is statement-level: a Block holds the simple statements and
// control-expression leaves executed straight-line, in source order.
// Compound control statements (if/for/switch/select) never appear in a
// block — their conditions are decomposed into leaf expressions (one block
// per short-circuit operand, so `a && b` really branches) and their bodies
// become successor blocks. The one exception is *ast.RangeStmt, which
// marks its loop-head block; VisitExprs knows to skip its Body. Function
// literals are opaque: a FuncLit inside a statement stays embedded in that
// statement's node, and VisitExprs does not descend into its body — build
// a separate Graph for it.
//
// `panic(...)` and `return` terminate their block with an edge to Exit.
// `defer` is recorded in the block where it executes (registration order);
// the deferred call itself runs at every function exit, which analyses
// that care model by treating Exit as running the recorded defers.
package cfg

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block: nodes executed straight-line, then a branch.
type Block struct {
	Index int
	// Kind labels why the block exists ("entry", "exit", "body",
	// "if.then", "for.cond", ...) for dumps and goldens.
	Kind string
	// Nodes are simple statements and control-expression leaves in
	// execution order. Walk their subtrees with VisitExprs, never
	// ast.Inspect, so range bodies and FuncLit bodies stay out.
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the CFG of one function body.
type Graph struct {
	Name   string
	Entry  *Block
	Exit   *Block
	Blocks []*Block // Entry first, Exit second, then creation order
}

// New builds the CFG of one function body. name labels dumps; decl is the
// *ast.FuncDecl or *ast.FuncLit whose Body is walked (nil Body yields an
// entry→exit graph).
func New(name string, decl ast.Node) *Graph {
	var body *ast.BlockStmt
	switch d := decl.(type) {
	case *ast.FuncDecl:
		body = d.Body
	case *ast.FuncLit:
		body = d.Body
	case *ast.BlockStmt:
		body = d
	}
	g := &Graph{Name: name}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	b.cur = b.newBlock("body")
	b.edge(g.Entry, b.cur)
	if body != nil {
		b.stmtList(body.List)
	}
	// Fall off the end of the function.
	b.edge(b.cur, g.Exit)
	b.resolveGotos()
	return g
}

// labelInfo tracks one label: its target block for goto, and — when the
// labeled statement is a loop or switch — the break/continue targets a
// labeled branch statement jumps to.
type labelInfo struct {
	target *Block // the labeled statement's head (goto target)
	brk    *Block
	cont   *Block
}

// frame is one enclosing breakable construct (for/range/switch/select).
type frame struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

type builder struct {
	g      *Graph
	cur    *Block
	frames []frame
	labels map[string]*labelInfo
	gotos  []pendingGoto
	// pendingLabel is the label attached to the next loop/switch built, so
	// `continue lbl` / `break lbl` resolve to it.
	pendingLabel string
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an unconditional edge and opens an
// unreachable continuation (statements after return/break land there).
func (b *builder) jump(to *Block) {
	b.edge(b.cur, to)
	b.cur = b.newBlock("unreachable")
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	// Any statement other than a labeled loop/switch consumes the pending
	// label as a plain goto target.
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if isPanic(s.X) {
			b.jump(b.g.Exit)
		}

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.jump(b.g.Exit)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		els := done
		if s.Else != nil {
			els = b.newBlock("if.else")
		}
		b.cond(s.Cond, then, els)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, done)
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, done)
		}
		b.cur = done

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		label := b.takeLabel()
		head := b.newBlock("for.cond")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.edge(b.cur, head)
		if s.Cond != nil {
			b.cur = head
			b.cond(s.Cond, body, done)
		} else {
			b.edge(head, body)
		}
		b.setLabelTargets(label, head, done, post)
		b.pushFrame(frame{label: label, brk: done, cont: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.popFrame()
		b.edge(b.cur, post)
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.loop")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(b.cur, head)
		// The RangeStmt itself marks the head: its X is evaluated and its
		// Key/Value are (re)defined here on every successful iteration.
		head.Nodes = append(head.Nodes, s)
		b.edge(head, body)
		b.edge(head, done)
		b.setLabelTargets(label, head, done, head)
		b.pushFrame(frame{label: label, brk: done, cont: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.popFrame()
		b.edge(b.cur, head)
		b.cur = done

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.caseClauses(s.Body, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.caseClauses(s.Body, nil)

	case *ast.SelectStmt:
		b.caseClauses(s.Body, func(c ast.Stmt) []ast.Stmt {
			comm := c.(*ast.CommClause)
			if comm.Comm != nil {
				return append([]ast.Stmt{comm.Comm}, comm.Body...)
			}
			return comm.Body
		})

	case *ast.BranchStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.branchTarget(s.Label, false); t != nil {
				b.jump(t)
			}
		case token.CONTINUE:
			if t := b.branchTarget(s.Label, true); t != nil {
				b.jump(t)
			}
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
				b.cur = b.newBlock("unreachable")
			}
		case token.FALLTHROUGH:
			// Handled by caseClauses (edge to the next case body).
		}

	case *ast.LabeledStmt:
		li := b.labelInfo(s.Label.Name)
		head := b.newBlock("label." + s.Label.Name)
		li.target = head
		b.edge(b.cur, head)
		b.cur = head
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	default:
		// Simple statements: assignments, declarations, inc/dec, send,
		// defer, go, empty.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// caseClauses builds switch/type-switch/select clause blocks: the head
// (current) block branches to every clause; a missing default adds a
// head→done edge. body extracts the statements of a clause (nil: the
// CaseClause's exprs then body).
func (b *builder) caseClauses(body *ast.BlockStmt, stmtsOf func(ast.Stmt) []ast.Stmt) {
	label := b.takeLabel()
	head := b.cur
	done := b.newBlock("switch.done")
	b.setLabelTargets(label, head, done, nil)
	b.pushFrame(frame{label: label, brk: done})
	var clauseBlocks []*Block
	var clauseStmts [][]ast.Stmt
	hasDefault := false
	for _, c := range body.List {
		blk := b.newBlock("case")
		b.edge(head, blk)
		var stmts []ast.Stmt
		if stmtsOf != nil {
			stmts = stmtsOf(c)
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		} else {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		}
		clauseBlocks = append(clauseBlocks, blk)
		clauseStmts = append(clauseStmts, stmts)
	}
	if !hasDefault {
		b.edge(head, done)
	}
	for i, blk := range clauseBlocks {
		b.cur = blk
		fallsThrough := false
		for _, st := range clauseStmts[i] {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(clauseBlocks) {
			b.edge(b.cur, clauseBlocks[i+1])
		} else {
			b.edge(b.cur, done)
		}
	}
	b.popFrame()
	b.cur = done
}

// cond decomposes a branch condition into short-circuit leaf blocks: each
// leaf expression gets evaluated in its own block with true/false edges,
// so dataflow sees that `b` in `a && b` only runs when `a` held.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch ex := e.(type) {
	case *ast.ParenExpr:
		b.cond(ex.X, t, f)
		return
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.LAND:
			mid := b.newBlock("cond.and")
			b.cond(ex.X, mid, f)
			b.cur = mid
			b.cond(ex.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock("cond.or")
			b.cond(ex.X, t, mid)
			b.cur = mid
			b.cond(ex.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			b.cond(ex.X, f, t)
			return
		}
	}
	b.cur.Nodes = append(b.cur.Nodes, e)
	b.edge(b.cur, t)
	b.edge(b.cur, f)
}

func (b *builder) pushFrame(fr frame) { b.frames = append(b.frames, fr) }
func (b *builder) popFrame()          { b.frames = b.frames[:len(b.frames)-1] }

// branchTarget resolves a break/continue, optionally labeled.
func (b *builder) branchTarget(label *ast.Ident, isContinue bool) *Block {
	if label != nil {
		li := b.labels[label.Name]
		if li == nil {
			return nil
		}
		if isContinue {
			return li.cont
		}
		return li.brk
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		fr := b.frames[i]
		if isContinue {
			if fr.cont != nil {
				return fr.cont
			}
			continue
		}
		return fr.brk
	}
	return nil
}

func (b *builder) labelInfo(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

// takeLabel consumes the pending label of a labeled loop/switch.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// setLabelTargets records break/continue targets for a labeled construct.
// The goto target stays the label head created by LabeledStmt.
func (b *builder) setLabelTargets(label string, head, brk, cont *Block) {
	if label == "" {
		return
	}
	li := b.labelInfo(label)
	li.brk = brk
	li.cont = cont
	_ = head
}

func (b *builder) resolveGotos() {
	for _, pg := range b.gotos {
		if li := b.labels[pg.label]; li != nil && li.target != nil {
			b.edge(pg.from, li.target)
		}
	}
}

// isPanic reports whether a call expression is a direct call of the
// predeclared panic (by spelling; the builder is type-free by design, and
// shadowing panic would already be flagged by vet/invariantpanic).
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// VisitExprs walks the subtree of one block node in source order, calling
// visit for every node, without crossing the two block boundaries embedded
// in nodes: a RangeStmt's Body (it belongs to other blocks) and FuncLit
// bodies (separate functions). visit returning false prunes the subtree.
func VisitExprs(n ast.Node, visit func(ast.Node) bool) {
	if n == nil {
		return
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		if !visit(rs) {
			return
		}
		VisitExprs(rs.Key, visit)
		VisitExprs(rs.Value, visit)
		VisitExprs(rs.X, visit)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if fl, ok := m.(*ast.FuncLit); ok {
			if visit(fl) {
				// Visit the type (captured expressions in the signature are
				// not executed here either, but types carry no effects).
				return false
			}
			return false
		}
		if rs, ok := m.(*ast.RangeStmt); ok && rs != n {
			VisitExprs(rs, visit)
			return false
		}
		return visit(m)
	})
}

// Reachable returns the blocks reachable from Entry, in a deterministic
// preorder.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var out []*Block
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		out = append(out, b)
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return out
}

// String renders the reachable graph for dumps and golden tests. Node
// positions are rendered through fset when non-nil.
func (g *Graph) String() string { return g.Dump(nil) }

// Dump renders the reachable blocks with their nodes (single-line
// pretty-printed) and successor lists.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", g.Name)
	for _, b := range g.Reachable() {
		fmt.Fprintf(&sb, "  b%d %s:", b.Index, b.Kind)
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, "    %s\n", NodeString(fset, n))
		}
	}
	return sb.String()
}

// NodeString renders one block node on a single line (range statements as
// their header only).
func NodeString(fset *token.FileSet, n ast.Node) string {
	if fset == nil {
		fset = token.NewFileSet()
	}
	if rs, ok := n.(*ast.RangeStmt); ok {
		hdr := "range " + NodeString(fset, rs.X)
		if rs.Key != nil {
			kv := NodeString(fset, rs.Key)
			if rs.Value != nil {
				kv += ", " + NodeString(fset, rs.Value)
			}
			hdr = kv + " " + rs.Tok.String() + " " + hdr
		}
		return "for " + hdr
	}
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}
