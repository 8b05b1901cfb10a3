// Package hotalloc audits allocation discipline on the per-event hot
// path. The engine schedules compact 64-byte event records instead of a
// closure per message precisely because closure and interface-header
// allocations per event dominate at 100k nodes; this analyzer keeps that
// discipline honest as the scheduler and arenas are rewritten.
//
// The shared config names each package's hot roots (megasim's shard
// dispatch loop, the gf256/fec kernels). Everything statically reachable
// from a root within the package is audited for three allocation shapes:
//
//   - function literals: a closure capture is a heap allocation per event;
//   - interface boxing: converting a non-pointer-shaped concrete value to
//     an interface type allocates the boxed copy (pointer-shaped values —
//     pointers, maps, channels, funcs — box without allocating and pass);
//   - append: growth may allocate a fresh backing array per event unless
//     the destination's capacity is pooled or arena-managed, which the
//     code asserts with `//lint:pooled <justification>`.
//
// Cold paths inside hot functions are exempt: arguments to panic (the
// engine panics on programmer error, never per event) and boxing inside
// return statements (error construction on validation paths). Anything
// else that is intentionally cold carries `//lint:coldpath <why>`.
//
// Calls that cannot be resolved statically — interface-method dispatch
// like handler.HandleMessage, and calls through function values — end the
// audit at the call site; callee packages declare their own roots.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/types"

	"gossipstream/internal/simlint/analysis"
	"gossipstream/internal/simlint/lintcfg"
)

// New returns the analyzer configured with cfg's hot-root table.
func New(cfg *lintcfg.Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "flags closures, interface boxing, and unpooled append in functions reachable " +
			"from the configured per-event hot roots (megasim dispatch, gf256/fec kernels)",
	}
	a.Run = func(pass *analysis.Pass) error {
		roots := cfg.Roots(pass.Pkg.Path())
		if len(roots) == 0 {
			return nil
		}
		decls := declIndex(pass)
		reachable := reach(pass, decls, roots)
		for decl := range reachable {
			checkBody(pass, decl)
		}
		return nil
	}
	return a
}

// declIndex maps each function object declared in the package to its
// declaration.
func declIndex(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// declName renders a declaration the way the config names roots:
// "Func", "Type.Method", or "(*Type).Method".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := baseIdent(star.X); ok {
			return fmt.Sprintf("(*%s).%s", id, fd.Name.Name)
		}
	}
	if id, ok := baseIdent(t); ok {
		return fmt.Sprintf("%s.%s", id, fd.Name.Name)
	}
	return fd.Name.Name
}

func baseIdent(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.IndexExpr: // generic receiver Type[T]
		return baseIdent(e.X)
	}
	return "", false
}

// reach computes the set of package-local declarations statically
// reachable from the named roots.
func reach(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, roots []string) map[*ast.FuncDecl]bool {
	byName := make(map[string]*ast.FuncDecl, len(decls))
	for _, fd := range decls {
		byName[declName(fd)] = fd
	}
	seen := make(map[*ast.FuncDecl]bool)
	var work []*ast.FuncDecl
	for _, r := range roots {
		if fd, ok := byName[r]; ok && !seen[fd] {
			seen[fd] = true
			work = append(work, fd)
		}
	}
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(pass, call)
			if fn == nil {
				return true
			}
			if callee, ok := decls[fn]; ok && !seen[callee] {
				seen[callee] = true
				work = append(work, callee)
			}
			return true
		})
	}
	return seen
}

// staticCallee resolves the *types.Func a call statically invokes: a
// package function, or a method called on a concrete receiver. Interface
// dispatch and function-value calls return nil.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkBody audits one reachable function body.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	name := declName(fd)
	analysis.WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if inPanicArg(stack) || pass.Suppressed(n.Pos(), "coldpath") {
				return true
			}
			pass.Reportf(n.Pos(),
				"function literal in hot path (%s): a closure is a heap allocation per event; store state in the flat event record or a method value on pre-allocated state",
				name)
			return false // the literal's own body is not on the per-event path
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					if inPanicArg(stack) || pass.Suppressed(n.Pos(), "pooled") || pass.Suppressed(n.Pos(), "coldpath") {
						return true
					}
					pass.Reportf(n.Pos(),
						"append in hot path (%s): growth allocates a fresh backing array per event; reuse pooled or arena capacity and assert it with //lint:pooled <why>",
						name)
					return true
				}
			}
			checkBoxing(pass, name, n, stack)
		}
		return true
	})
}

// checkBoxing flags implicit and explicit conversions of non-pointer-shaped
// concrete values to interface types in call arguments and conversions.
func checkBoxing(pass *analysis.Pass, name string, call *ast.CallExpr, stack []ast.Node) {
	if inPanicArg(stack) || inReturn(stack) {
		return
	}
	// Builtin calls: panic's own argument is a cold path by definition,
	// and no other builtin boxes (append/clear/copy/delete take concrete
	// types; print/println are debug-only).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	// Explicit conversion I(x).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(pass.TypesInfo.TypeOf(call.Args[0]), tv.Type) {
			if !pass.Suppressed(call.Pos(), "coldpath") {
				pass.Reportf(call.Pos(),
					"conversion to %s boxes a concrete value in hot path (%s): an interface header plus a heap copy per event",
					types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)), name)
			}
		}
		return
	}
	// Implicit conversion at call arguments.
	sigT := pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(pass.TypesInfo.TypeOf(arg), pt) && !pass.Suppressed(arg.Pos(), "coldpath") {
			pass.Reportf(arg.Pos(),
				"argument boxes %s into %s in hot path (%s): an interface header plus a heap copy per event",
				types.TypeString(pass.TypesInfo.TypeOf(arg), types.RelativeTo(pass.Pkg)),
				types.TypeString(pt, types.RelativeTo(pass.Pkg)), name)
		}
	}
}

// boxes reports whether assigning a value of type from to type to performs
// an allocating interface conversion: to is an interface, from is a
// concrete type, and from's values do not fit the interface data word
// (pointer-shaped values box for free).
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false // interface-to-interface carries the existing header
	}
	if from == types.Typ[types.UntypedNil] {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

// inPanicArg reports whether the node is inside the argument of a panic
// call: programmer-error paths are cold by definition.
func inPanicArg(stack []ast.Node) bool {
	for _, n := range stack {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// inReturn reports whether the node sits inside a return statement; error
// construction on validation exits is treated as cold.
func inReturn(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return true
		}
	}
	return false
}
