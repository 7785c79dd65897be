package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// objOf resolves an identifier to its object, whether it is a definition
// or a use.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// namedOf unwraps pointers and returns the named type beneath, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// pkgPathTail reports whether path is pkg or ends in "/pkg" — the form in
// which both the module's packages and the testdata harness see import
// paths.
func pkgPathTail(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// isPkgFunc reports whether call invokes the package-level function
// pkg.name, with pkg matched by import-path tail (e.g. "ikey", "time").
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = objOf(info, fun)
	case *ast.SelectorExpr:
		obj = objOf(info, fun.Sel)
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return pkgPathTail(fn.Pkg().Path(), pkg)
}

// iterMethodCall reports whether call is recv.Key() or recv.Value() on an
// iterator-like receiver returning []byte. "Iterator-like" is structural:
// the receiver's named type contains "Iter" in its name (skiplist.Iterator,
// sstable.BlockIter, sstable.Iterator, and any future cursor following the
// repo's naming convention). The returned slices alias the iterator's
// internal buffers or immutable block/arena memory and are only valid
// until the next Next/Seek.
func iterMethodCall(info *types.Info, call *ast.CallExpr, methods ...string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	match := false
	for _, m := range methods {
		if sel.Sel.Name == m {
			match = true
			break
		}
	}
	if !match {
		return false
	}
	fn, ok := objOf(info, sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if sig.Results().Len() != 1 || !isByteSlice(sig.Results().At(0).Type()) {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && strings.Contains(strings.ToLower(named.Obj().Name()), "iter")
}

// rootIdent returns the leftmost identifier of a selector/index/slice
// chain (db in db.bg.flushes, sc in sc.bi.key), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// containsMutex reports whether t (passed or copied by value) embeds a
// mutex anywhere in its struct layout.
func containsMutex(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	if isMutex(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if _, isPtr := ft.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if arr, isArr := ft.Underlying().(*types.Array); isArr {
			ft = arr.Elem()
		}
		if containsMutex(ft, depth+1) {
			return true
		}
	}
	return false
}

// localCompositeInits collects local variables initialised from a
// composite literal (db := &DB{...}, v := version{...}) or new(T) inside
// body. Objects they denote are unpublished: no other goroutine can see
// them yet, so guarded-field access through them is lock-free by
// construction (the constructor pattern).
func localCompositeInits(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		switch r := unparen(rhs).(type) {
		case *ast.CompositeLit:
		case *ast.UnaryExpr:
			if _, lit := unparen(r.X).(*ast.CompositeLit); r.Op.String() != "&" || !lit {
				return
			}
		case *ast.CallExpr:
			if id, ok := unparen(r.Fun).(*ast.Ident); !ok || id.Name != "new" {
				return
			}
		default:
			return
		}
		if obj := objOf(info, id); obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					mark(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					mark(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// isBuiltinAppend reports whether call invokes the append builtin (as
// opposed to a local function shadowing the name).
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := objOf(info, id).(*types.Builtin)
	return builtin
}

// forEachFuncDecl applies fn to every function declaration with a body.
func forEachFuncDecl(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
