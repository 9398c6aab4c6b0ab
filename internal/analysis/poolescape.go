package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolEscape enforces the free-list discipline the pooled data path
// (DESIGN §9) depends on: a record obtained from a pool (a call matching
// the get/acquire/alloc pattern that returns a pointer) is dead the moment
// it is released (put/release/free), because the pool will hand the same
// memory to the next caller. Any mention of the variable after the release
// — a field store, a channel send, a read, capture by a closure — is a
// use-after-free with extra steps: it works until the record is recycled
// mid-flight, and then it corrupts an unrelated event. This is the shape
// of the pre-PR-6 ctxs roster leak: a retired record retained by a
// longer-lived structure.
//
// The analysis is per-function and position-based with a reachability
// walk: a release inside a branch whose statement list then exits
// (return / continue / break / panic) does not poison code after the
// branch — which is exactly the copy-payload-then-put shape the engine's
// dispatch loop uses. Loop-carried uses (release at the bottom of an
// iteration, use at the top of the next) are out of scope; the in-tree
// pools re-acquire at the loop head, which resets tracking anyway.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "pooled records (get/acquire/alloc) must not be used after release (put/release/free)",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd)
		}
	}
	return nil
}

func acquireName(name string) bool {
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "get") || strings.HasPrefix(l, "acquire") ||
		strings.HasPrefix(l, "alloc") || strings.HasPrefix(l, "next") || strings.HasPrefix(l, "pop")
}

func releaseName(name string) bool {
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "put") || strings.HasPrefix(l, "release") || strings.HasPrefix(l, "free")
}

// moduleLocal reports whether fn is declared in this module — pool APIs
// are, stdlib Get/Put lookalikes (ring.Next, sync.Pool.Put) are not.
func (p *Pass) moduleLocal(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && p.local[fn.Pkg().Path()]
}

type releaseSite struct {
	call *ast.CallExpr
	name string
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	lookup := func(id *ast.Ident) types.Object {
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}

	// Pass 1: pooled variables — single-result pointer-typed assignments
	// from module-local acquire-pattern calls.
	pooled := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := CalleeFunc(pass.Info, call)
		if fn == nil || !acquireName(fn.Name()) || !pass.moduleLocal(fn) {
			return true
		}
		if obj := lookup(id); obj != nil {
			if _, ptr := obj.Type().(*types.Pointer); ptr {
				pooled[obj] = true
			}
		}
		return true
	})
	if len(pooled) == 0 {
		return
	}

	parents := buildParents(fd.Body)

	// Pass 2: release sites and reassignments per pooled object. A bare
	// identifier on an assignment's left side rebinds the variable — it is
	// a reset, not a use of the released record (r.n = ... stays a use:
	// its target is the selector, and the root read dereferences r).
	releases := make(map[types.Object][]releaseSite)
	resets := make(map[types.Object][]token.Pos)
	rebinds := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := lookup(id); obj != nil && pooled[obj] {
						resets[obj] = append(resets[obj], n.End())
						rebinds[id] = true
					}
				}
			}
		case *ast.CallExpr:
			fn := CalleeFunc(pass.Info, n)
			if fn == nil || !releaseName(fn.Name()) || !pass.moduleLocal(fn) {
				return true
			}
			victim := releasedObject(pass, n, pooled)
			if victim != nil {
				releases[victim] = append(releases[victim], releaseSite{call: n, name: fn.Name()})
			}
		}
		return true
	})
	if len(releases) == 0 {
		return
	}

	// Pass 3: uses positioned after a reaching release with no
	// reassignment in between.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || rebinds[id] {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !pooled[obj] || len(releases[obj]) == 0 {
			return true
		}
		for _, rel := range releases[obj] {
			if id.Pos() <= rel.call.End() {
				continue
			}
			if resetBetween(resets[obj], rel.call.End(), id.Pos()) {
				continue
			}
			if releaseReaches(parents, rel.call, id.Pos()) {
				pass.Reportf(id.Pos(), "pooled record %s used after %s at line %d released it back to the free list: copy what you need before the release", id.Name, rel.name, pass.Fset.Position(rel.call.Pos()).Line)
				break
			}
		}
		return true
	})
}

// releasedObject identifies which pooled variable a release call retires:
// the receiver chain root (v.Release(), q.put(v) both resolve through
// arguments first, then the receiver).
func releasedObject(pass *Pass, call *ast.CallExpr, pooled map[types.Object]bool) types.Object {
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && pooled[obj] {
				return obj
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id := rootIdent(sel.X); id != nil {
			if obj := pass.Info.Uses[id]; obj != nil && pooled[obj] {
				return obj
			}
		}
	}
	return nil
}

func resetBetween(resets []token.Pos, lo, hi token.Pos) bool {
	for _, p := range resets {
		if p > lo && p < hi {
			return true
		}
	}
	return false
}

// releaseReaches walks outward from the release call through enclosing
// statement lists. Within the list that also spans the use, position order
// decides; to escape a list, no direct-child statement after the release
// may exit (return, branch, panic, os.Exit).
func releaseReaches(parents map[ast.Node]ast.Node, rel *ast.CallExpr, use token.Pos) bool {
	var node ast.Node = rel
	for {
		owner, list := enclosingList(parents, node)
		if owner == nil {
			// Reached the function body without finding the use: the use
			// is outside this function (shouldn't happen) — be safe.
			return false
		}
		if use >= owner.Pos() && use <= owner.End() {
			return use > rel.End()
		}
		for _, s := range list {
			if s.Pos() > rel.End() && stmtExits(s) {
				return false
			}
		}
		node = owner
	}
}

// enclosingList finds the nearest ancestor that owns a statement list
// containing node, returning that ancestor and the list.
func enclosingList(parents map[ast.Node]ast.Node, node ast.Node) (ast.Node, []ast.Stmt) {
	for cur := parents[node]; cur != nil; cur = parents[cur] {
		switch b := cur.(type) {
		case *ast.BlockStmt:
			return b, b.List
		case *ast.CaseClause:
			return b, b.Body
		case *ast.CommClause:
			return b, b.Body
		case *ast.FuncLit, *ast.FuncDecl:
			return nil, nil // never escape a function boundary
		}
	}
	return nil, nil
}

// stmtExits reports whether a statement unconditionally leaves the
// enclosing statement list.
func stmtExits(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok {
					return x.Name == "os" && fun.Sel.Name == "Exit"
				}
			}
		}
	}
	return false
}

// buildParents maps every node under root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// rootIdent returns the base identifier of a selector/index/star chain
// (m.Eng, ctrls[i].cache, (*p).q -> m, ctrls, p), or nil when the chain is
// rooted elsewhere (a call result, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}
