package lint

import (
	"go/ast"
	"go/types"
)

// SliceRetain flags iterator-owned byte slices that escape the iteration
// step. skiplist.Iterator, sstable.BlockIter and sstable.Iterator hand out
// Key()/Value() slices that alias internal buffers reused by the next
// Next/Seek (BlockIter.Next rewrites it.key in place for prefix
// decompression). Storing such a slice into a struct field, map, escaping
// slice or channel silently retains memory that is about to be
// overwritten — the classic LSM read-path corruption. An explicit copy
// (append([]byte(nil), it.Key()...)) breaks the alias and is accepted;
// deliberate aliasing (e.g. a scratch struct reset on every use) is
// annotated //lsm:aliasok.
var SliceRetain = &Analyzer{
	Name: "sliceretain",
	Doc:  "iterator Key()/Value() bytes must be copied before they escape the iteration step",
	Run:  runSliceRetain,
}

func runSliceRetain(pass *Pass) {
	forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		checkSliceRetainFunc(pass, fd)
	})
}

// checkSliceRetainFunc runs a small flow-insensitive alias propagation
// over one function body, then flags escaping uses of aliased values.
func checkSliceRetainFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// aliased holds locals transitively assigned from iterator
	// Key()/Value() calls. Two propagation passes close simple chains
	// (k := it.Key(); uk := ikey.UserKey(k); u2 := uk[1:]) without a
	// full fixpoint; deeper chains are beyond what the codebase writes.
	aliased := map[types.Object]bool{}

	var aliasExpr func(e ast.Expr) bool
	aliasExpr = func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.CallExpr:
			if iterMethodCall(info, x, "Key", "Value") {
				return true
			}
			// ikey.UserKey returns a sub-slice of its argument: the user
			// key view of an aliased internal key is still aliased.
			if isPkgFunc(info, x, "ikey", "UserKey") && len(x.Args) == 1 {
				return aliasExpr(x.Args[0])
			}
			return false
		case *ast.Ident:
			obj := objOf(info, x)
			return obj != nil && aliased[obj]
		case *ast.SliceExpr:
			return aliasExpr(x.X)
		}
		return false
	}

	markAssign := func(lhs, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		if obj := objOf(info, id); obj != nil && aliasExpr(rhs) {
			aliased[obj] = true
		}
	}

	for i := 0; i < 2; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for j := range st.Lhs {
						markAssign(st.Lhs[j], st.Rhs[j])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for j := range st.Names {
						markAssign(st.Names[j], st.Values[j])
					}
				}
			}
			return true
		})
	}

	report := func(pos ast.Node, what string) {
		if pass.SuppressedAt(pos.Pos(), "lsm:aliasok") {
			return
		}
		pass.Reportf(pos.Pos(), "iterator-aliased bytes %s; copy with append([]byte(nil), ...) first or mark //lsm:aliasok", what)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Lhs {
				if !aliasExpr(st.Rhs[i]) {
					continue
				}
				switch unparen(st.Lhs[i]).(type) {
				case *ast.SelectorExpr:
					report(st.Rhs[i], "stored into a struct field")
				case *ast.IndexExpr:
					report(st.Rhs[i], "stored into a map or slice element")
				}
			}
		case *ast.CallExpr:
			// append(s, k) grows an escaping slice that outlives the
			// iteration step; append(dst, k...) is the copy idiom and
			// spreads bytes, not the alias.
			if isBuiltinAppend(info, st) && st.Ellipsis == 0 && len(st.Args) > 1 {
				for _, arg := range st.Args[1:] {
					if aliasExpr(arg) {
						report(arg, "appended to a slice")
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if aliasExpr(v) {
					report(v, "stored in a composite literal")
				}
			}
		case *ast.SendStmt:
			if aliasExpr(st.Value) {
				report(st.Value, "sent on a channel")
			}
		}
		return true
	})
}
