package analysis

import (
	"go/ast"
	"go/types"
)

// Annotation directives recognized on declarations.
const (
	DirHotPath = "//alewife:hotpath"
	DirNilSafe = "//alewife:nil-safe"
)

// DeclDirective returns the //alewife: annotation directive in a doc
// comment, or "".
func DeclDirective(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		switch c.Text {
		case DirHotPath, DirNilSafe:
			return c.Text
		}
	}
	return ""
}

// CalleeFunc resolves the called function of an expression, looking through
// selections and generic instantiation; nil when the callee is not a named
// function or method (builtin, func-typed variable, conversion).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
