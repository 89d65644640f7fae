package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicTypeNames are the sync/atomic value types that must only be
// touched through their methods.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// syncNoCopyNames are the sync types whose values must not be copied after
// first use.
var syncNoCopyNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "Once": true, "WaitGroup": true,
	"Cond": true, "Pool": true, "Map": true,
}

// isAtomicType reports whether t is a sync/atomic value type (including
// instantiated atomic.Pointer[T]).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()]
}

// isSyncNoCopy reports whether t is a no-copy sync type.
func isSyncNoCopy(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncNoCopyNames[obj.Name()]
}

// mustNotCopy reports whether values of t must never travel by value:
// atomic and sync types themselves, and any struct or array containing one
// at any depth.
func mustNotCopy(t types.Type) bool {
	return mustNotCopy1(t, map[types.Type]bool{})
}

func mustNotCopy1(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if isAtomicType(t) || isSyncNoCopy(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if mustNotCopy1(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return mustNotCopy1(u.Elem(), seen)
	}
	return false
}

// isCopyRead reports whether expr reads an existing value (identifier,
// field, element, dereference) as opposed to constructing a fresh one
// (composite literal, call result) — only reads of existing values are
// copies of live state.
func isCopyRead(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		_ = e
		return true
	}
	return false
}

// checkAtomicDiscipline is a stricter, typed copylocks scoped to the
// module's atomics-based concurrency style: values whose type carries a
// sync/atomic field (Store.cur, Store.swaps, metrics histograms) or
// a sync lock must move by pointer only. It flags by-value receivers,
// parameters and results; assignments and range clauses that copy a live
// value; call arguments passed by value; and atomic fields whose address
// escapes into a call or return — the shapes that silently tear or fork
// counter state.
func checkAtomicDiscipline(pkg *Package, _ *CallGraph, r *Reporter) {
	info := pkg.Info
	for _, f := range pkg.Files {
		var stack []ast.Node
		parent := func() ast.Node {
			if len(stack) == 0 {
				return nil
			}
			return stack[len(stack)-1]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Recv != nil {
					checkFieldList(info, r, x.Recv, "receiver")
				}
				checkFieldList(info, r, x.Type.Params, "parameter")
				checkFieldList(info, r, x.Type.Results, "result")
			case *ast.FuncLit:
				checkFieldList(info, r, x.Type.Params, "parameter")
				checkFieldList(info, r, x.Type.Results, "result")
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for _, rhs := range x.Rhs {
						if isCopyRead(rhs) && mustNotCopy(info.TypeOf(rhs)) {
							r.Reportf(rhs.Pos(), "assignment copies the atomic/lock-bearing value %s (type %s); take a pointer instead",
								types.ExprString(rhs), typeLabel(info, rhs))
						}
					}
				}
			case *ast.RangeStmt:
				if x.Value != nil && mustNotCopy(info.TypeOf(x.Value)) {
					r.Reportf(x.Value.Pos(), "range copies atomic/lock-bearing %s values; iterate by index and take pointers",
						typeLabel(info, x.Value))
				}
			case *ast.CallExpr:
				if isBuiltin(info, x, "len") || isBuiltin(info, x, "cap") {
					break
				}
				for _, arg := range x.Args {
					if isCopyRead(arg) && mustNotCopy(info.TypeOf(arg)) {
						r.Reportf(arg.Pos(), "call passes the atomic/lock-bearing value %s (type %s) by value; pass a pointer",
							types.ExprString(arg), typeLabel(info, arg))
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND && isAtomicType(info.TypeOf(x.X)) && addrEscapes(info, parent()) {
					r.Reportf(x.Pos(), "address of atomic value %s escapes; access atomics only through their methods on the owning struct",
						types.ExprString(x.X))
				}
			}
			stack = append(stack, n)
			return true
		})
	}
}

// checkFieldList flags by-value atomic/lock-bearing types in a receiver,
// parameter, or result list.
func checkFieldList(info *types.Info, r *Reporter, fl *ast.FieldList, kind string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if _, ok := t.(*types.Pointer); ok {
			continue
		}
		if mustNotCopy(t) {
			r.Reportf(field.Type.Pos(), "%s of atomic/lock-bearing type %s travels by value; use a pointer",
				kind, types.TypeString(t, func(p *types.Package) string { return p.Name() }))
		}
	}
}

// addrEscapes reports whether &x in the given parent context hands the
// pointer to code that may retain it: call arguments, returns, and
// composite-literal storage. A plain assignment keeps the alias local
// (the em := &m.endpoints[ep] idiom).
func addrEscapes(info *types.Info, parent ast.Node) bool {
	switch p := parent.(type) {
	case *ast.CallExpr:
		// Calling a method ON the atomic ((&x.f).Store(v)) is the access
		// discipline itself, not an escape; passing &x.f as an argument is.
		return true
	case *ast.ReturnStmt:
		_ = p
		return true
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	}
	return false
}
