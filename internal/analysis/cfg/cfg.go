// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, plus a light def-use index on top of go/types. It is
// the dataflow layer under the hot-path analyzers in internal/analysis:
// the analyzers need to know "does this statement execute more than once
// per call" (block-on-a-cycle) and "where was this variable defined"
// (def sites with their right-hand sides), both of which a purely
// syntactic walk gets wrong for labeled breaks, goto loops and
// multi-exit switches.
//
// The graph is deliberately small: blocks hold shallow nodes only
// (simple statements and the header expressions of compound statements;
// nested bodies live in their own blocks), edges are successor lists,
// and construction never fails — unresolved labels and other broken
// shapes degrade to edges into the exit block rather than panics, so
// the builder is safe to fuzz with arbitrary parseable input.
package cfg

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one straight-line run of shallow nodes. Nodes contains
// simple statements and compound-statement header expressions in
// execution order; control transfers only at the end of the block,
// to one of Succs.
type Block struct {
	Index int
	// Kind names the role of the block ("entry", "for.body", ...) for
	// debug output and golden tests.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the CFG of one function body. Blocks[0] is the entry and
// Blocks[1] the exit; every return statement and the natural end of the
// body lead to the exit.
type Graph struct {
	Entry, Exit *Block
	Blocks      []*Block
}

// New builds the CFG of a function body. A nil body (declarations
// without bodies) yields a trivial entry→exit graph.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{
		g:           g,
		labels:      map[string]loopTargets{},
		labelBlocks: map[string]*Block{},
	}
	g.Entry = b.newBlock("entry")
	g.Exit = b.newBlock("exit")
	if body == nil {
		b.edge(g.Entry, g.Exit)
		return g
	}
	first := b.newBlock("body")
	b.edge(g.Entry, first)
	if last := b.stmtList(first, body.List); last != nil {
		b.edge(last, g.Exit)
	}
	b.patchGotos()
	return g
}

// InCycle reports, for every block, whether it lies on a cycle — i.e.
// whether its nodes can execute more than once per invocation. This is
// the loop-membership test the hot-path analyzers use; unlike "is the
// AST node inside a for statement" it also catches goto loops and is
// not fooled by statements after an unconditional break.
func (g *Graph) InCycle() map[*Block]bool {
	in := make(map[*Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		if in[b] {
			continue
		}
		// b is on a cycle iff b is reachable from one of its successors.
		stack := append([]*Block(nil), b.Succs...)
		seen := map[*Block]bool{}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == b {
				in[b] = true
				break
			}
			if seen[cur] {
				continue
			}
			seen[cur] = true
			stack = append(stack, cur.Succs...)
		}
	}
	return in
}

// Format renders the graph for golden tests: one line per block with
// its kind, a compact rendering of its nodes, and its successor list.
func (g *Graph) Format(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", b.Index, b.Kind)
		for _, n := range b.Nodes {
			fmt.Fprintf(&sb, " {%s}", Render(fset, n))
		}
		sb.WriteString(" ->")
		if len(b.Succs) == 0 {
			sb.WriteString(" none")
		}
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Render prints a node on one line, whitespace collapsed — the compact
// form messages use ("b.mu", "p.Costs").
func Render(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&sb, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(sb.String()), " ")
}

// loopTargets are the jump targets a break/continue statement resolves
// to for one enclosing construct.
type loopTargets struct {
	brk, cont *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g *Graph
	// Innermost break/continue targets (cont is nil inside switch/select).
	cur loopTargets
	// Labeled construct targets, by label name.
	labels map[string]loopTargets
	// Goto targets: label name -> block the labeled statement starts.
	labelBlocks map[string]*Block
	gotos       []pendingGoto
	// Label attached to the construct about to be built.
	pendingLabel string
	// Jump target of a fallthrough in the current case clause.
	fallthroughTo *Block
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// takeLabel consumes the pending label for the construct being built,
// registering its break/continue targets.
func (b *builder) takeLabel(t loopTargets) {
	if b.pendingLabel != "" {
		b.labels[b.pendingLabel] = t
		b.pendingLabel = ""
	}
}

func (b *builder) patchGotos() {
	for _, pg := range b.gotos {
		if target, ok := b.labelBlocks[pg.label]; ok {
			b.edge(pg.from, target)
		} else {
			// Unresolved label (broken input): degrade to exit.
			b.edge(pg.from, b.g.Exit)
		}
	}
}

// stmtList builds the statements into cur, returning the block where
// control continues afterwards, or nil if it never falls through.
func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/break/...; give it its own
			// block so its nodes still exist in the graph (analyzers may
			// still want to report on them) but leave it unconnected.
			cur = b.newBlock("unreachable")
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt builds one statement into cur and returns the continuation block
// (nil when the statement never falls through).
func (b *builder) stmt(cur *Block, s ast.Stmt) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		lbl := b.newBlock("label." + s.Label.Name)
		b.edge(cur, lbl)
		b.labelBlocks[s.Label.Name] = lbl
		b.pendingLabel = s.Label.Name
		// A label on a plain statement can still be a goto/break target;
		// register a default so `break L` on non-loops resolves.
		if _, isLoopy := loopyStmt(s.Stmt); !isLoopy {
			after := b.newBlock("label." + s.Label.Name + ".after")
			b.labels[s.Label.Name] = loopTargets{brk: after}
			b.pendingLabel = ""
			end := b.stmt(lbl, s.Stmt)
			if end != nil {
				b.edge(end, after)
			}
			return after
		}
		next := b.stmt(lbl, s.Stmt)
		b.pendingLabel = ""
		return next

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		after := b.newBlock("if.after")
		then := b.newBlock("if.then")
		b.edge(cur, then)
		if end := b.stmtList(then, s.Body.List); end != nil {
			b.edge(end, after)
		}
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cur, els)
			if end := b.stmt(els, s.Else); end != nil {
				b.edge(end, after)
			}
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock("for.body")
		b.edge(head, body)
		after := b.newBlock("for.after")
		if s.Cond != nil {
			b.edge(head, after)
		}
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
			contTo = post
		}
		outer := b.cur
		b.cur = loopTargets{brk: after, cont: contTo}
		b.takeLabel(b.cur)
		if end := b.stmtList(body, s.Body.List); end != nil {
			b.edge(end, contTo)
		}
		b.cur = outer
		return after

	case *ast.RangeStmt:
		// The range operand is evaluated once, before iteration starts —
		// it belongs to the predecessor block, not the cyclic head.
		cur.Nodes = append(cur.Nodes, s.X)
		head := b.newBlock("range.head")
		b.edge(cur, head)
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		body := b.newBlock("range.body")
		after := b.newBlock("range.after")
		b.edge(head, body)
		b.edge(head, after)
		outer := b.cur
		b.cur = loopTargets{brk: after, cont: head}
		b.takeLabel(b.cur)
		if end := b.stmtList(body, s.Body.List); end != nil {
			b.edge(end, head)
		}
		b.cur = outer
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchBody(cur, s.Body, "switch")

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchBody(cur, s.Body, "typeswitch")

	case *ast.SelectStmt:
		after := b.newBlock("select.after")
		outer := b.cur
		b.cur = loopTargets{brk: after, cont: outer.cont}
		b.takeLabel(loopTargets{brk: after})
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			cb := b.newBlock(kind)
			b.edge(cur, cb)
			if cc.Comm != nil {
				cb.Nodes = append(cb.Nodes, cc.Comm)
			}
			if end := b.stmtList(cb, cc.Body); end != nil {
				b.edge(end, after)
			}
		}
		b.cur = outer
		return after

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.g.Exit)
		return nil

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			t := b.cur.brk
			if s.Label != nil {
				t = b.labels[s.Label.Name].brk
			}
			if t == nil {
				t = b.g.Exit // broken input; stay total
			}
			b.edge(cur, t)
		case token.CONTINUE:
			t := b.cur.cont
			if s.Label != nil {
				t = b.labels[s.Label.Name].cont
			}
			if t == nil {
				t = b.g.Exit
			}
			b.edge(cur, t)
		case token.GOTO:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			b.gotos = append(b.gotos, pendingGoto{from: cur, label: label})
		case token.FALLTHROUGH:
			t := b.fallthroughTo
			if t == nil {
				t = b.g.Exit
			}
			b.edge(cur, t)
		}
		return nil

	default:
		// Simple statements: assignments, calls, sends, declarations,
		// go/defer, inc/dec, empty and bad statements.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchBody wires the clauses of a switch or type switch: every clause
// head hangs off cur, bodies flow to after, fallthrough jumps to the
// next clause's body.
func (b *builder) switchBody(cur *Block, body *ast.BlockStmt, kind string) *Block {
	after := b.newBlock(kind + ".after")
	outer := b.cur
	b.cur = loopTargets{brk: after, cont: outer.cont}
	b.takeLabel(loopTargets{brk: after})

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	heads := make([]*Block, len(clauses))
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		k := kind + ".case"
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		heads[i] = b.newBlock(k)
		heads[i].Nodes = append(heads[i].Nodes, exprNodes(cc.List)...)
		b.edge(cur, heads[i])
		bodies[i] = b.newBlock(k + ".body")
		b.edge(heads[i], bodies[i])
	}
	if !hasDefault {
		b.edge(cur, after)
	}
	for i, cc := range clauses {
		b.fallthroughTo = nil
		if i+1 < len(bodies) {
			b.fallthroughTo = bodies[i+1]
		}
		if end := b.stmtList(bodies[i], cc.Body); end != nil {
			b.edge(end, after)
		}
	}
	b.fallthroughTo = nil
	b.cur = outer
	return after
}

func exprNodes(list []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(list))
	for i, e := range list {
		out[i] = e
	}
	return out
}

// loopyStmt reports whether s is a construct that defines break (and
// possibly continue) targets of its own when labeled.
func loopyStmt(s ast.Stmt) (ast.Stmt, bool) {
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return s, true
	}
	return s, false
}
