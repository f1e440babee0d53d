package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath enforces the allocation-free discipline on functions annotated
// //powervet:hotpath — the Insert/DeleteMin/selector paths whose per-op
// cost the throughput claims rest on. It generalizes the runtime
// AllocsPerRun regression tests (which pin a handful of call sequences)
// to a build-time check over every annotated function.
//
// The check is intraprocedural over the typed AST (this module carries no
// SSA builder): inside an annotated body it rejects
//
//   - defer and go statements, closures (all allocate or schedule);
//   - make, new, append, map/slice composite literals, address-taken
//     composite literals, string concatenation, string<->[]byte/[]rune
//     conversions (heap allocation sites);
//   - explicit or implicit conversions to interface types (boxing), calls
//     through interface methods or function values (dynamic dispatch), and
//     calls that spill arguments into a variadic slice.
//
// Static calls to ordinary functions are allowed without annotation:
// transitive behavior stays pinned by the AllocsPerRun tests, and the
// hotpath meta-test ties every annotation to one of those tests. Amortized
// or cold allocations on an annotated path (a heap's append growth up to
// its working size) are waived per line with //powervet:allow hotpath and
// a reason. panic arguments are exempt: a panicking path is cold by
// definition.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//powervet:hotpath functions must not allocate, dispatch through interfaces, or defer",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := directive(fd.Doc, "hotpath"); !ok {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s is a hot path: defer has per-call cost and keeps the frame live", fd.Name.Name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is a hot path: go statement allocates a goroutine", fd.Name.Name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is a hot path: closure literal allocates", fd.Name.Name)
			return false // the closure body is not the annotated hot path
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(lit.Pos(), "%s is a hot path: address of composite literal escapes to the heap", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			checkCompositeLit(pass, fd, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info, n.X) {
				pass.Reportf(n.Pos(), "%s is a hot path: string concatenation allocates", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "%s is a hot path: string concatenation allocates", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, n)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkCompositeLit flags composite literals that allocate: slice and map
// literals always do; struct and array literals only when their address is
// taken (forcing a heap escape candidate). Plain struct values returned or
// assigned by value stay on the stack.
func checkCompositeLit(pass *Pass, fd *ast.FuncDecl, lit *ast.CompositeLit) {
	t := pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		pass.Reportf(lit.Pos(), "%s is a hot path: %s literal allocates", fd.Name.Name, kindName(t))
	}
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

func isString(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	// Type parameters dispatch statically after instantiation.
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Info
	name := fd.Name.Name
	fun := ast.Unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			src := info.TypeOf(call.Args[0])
			if isInterface(target) && !isInterface(src) && !isUntypedNil(info, call.Args[0]) {
				pass.Reportf(call.Pos(), "%s is a hot path: conversion to interface type %s boxes the operand", name, types.TypeString(target, types.RelativeTo(pass.Pkg)))
			}
			if allocatingStringConv(target, src) {
				pass.Reportf(call.Pos(), "%s is a hot path: %s conversion copies and allocates", name, types.TypeString(target, types.RelativeTo(pass.Pkg)))
			}
		}
		return
	}

	// Built-ins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "%s is a hot path: make allocates", name)
			case "new":
				pass.Reportf(call.Pos(), "%s is a hot path: new allocates", name)
			case "append":
				pass.Reportf(call.Pos(), "%s is a hot path: append may grow and allocate", name)
			case "panic":
				return // panicking paths are cold; their boxing is irrelevant
			}
			return
		}
	}

	// Interface method calls and calls through function values.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			recv := selection.Recv()
			if isInterface(recv) {
				pass.Reportf(call.Pos(), "%s is a hot path: interface method call %s.%s dispatches dynamically", name, types.TypeString(recv, types.RelativeTo(pass.Pkg)), sel.Sel.Name)
			}
		}
	}
	fn := funcObj(info, call)
	if fn == nil {
		// Not a static function, not a builtin, not a conversion: a call
		// through a function value (a plain func variable, or a func-typed
		// struct field — types.FieldVal selections resolve to nil here).
		pass.Reportf(call.Pos(), "%s is a hot path: call through a function value dispatches dynamically", name)
		return
	}

	// Static call: check variadic spill and implicit boxing at the
	// argument boundary.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		pass.Reportf(call.Pos(), "%s is a hot path: variadic call to %s allocates the argument slice", name, fn.Name())
	}
	n := params.Len()
	if sig.Variadic() {
		n-- // the variadic slot is covered by the spill check above
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		pt := params.At(i).Type()
		at := info.TypeOf(call.Args[i])
		if isInterface(pt) && !isInterface(at) && !isUntypedNil(info, call.Args[i]) {
			pass.Reportf(call.Args[i].Pos(), "%s is a hot path: argument %d of %s boxes into interface %s", name, i+1, fn.Name(), types.TypeString(pt, types.RelativeTo(pass.Pkg)))
		}
	}
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return true
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// allocatingStringConv reports string<->[]byte and string<->[]rune
// conversions, which copy into a fresh allocation.
func allocatingStringConv(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	str := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	byteOrRune := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (str(dst) && byteOrRune(src)) || (byteOrRune(dst) && str(src))
}
