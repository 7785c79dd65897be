package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces the `// guarded by <mu>` field annotations. A field
// so annotated may only be read or written by functions that visibly
// acquire the guarding mutex (a <recv>.<mu>.Lock() or .RLock() call in
// the body), follow the repo's *Locked suffix convention (caller holds
// the lock), carry an explicit //lsm:locked directive, or operate on an
// unpublished object just built from a composite literal (constructors).
// The check is flow-insensitive by design: it catches the real failure
// mode — a function that touches guarded state and never mentions the
// mutex at all — without a dataflow engine.
//
// LockGuard also flags code that copies a mutex by value: parameters,
// results and receivers of mutex-containing struct types, and
// dereference copies (x := *p). A copied mutex guards nothing.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated `// guarded by mu` are only touched under the lock; mutexes are never copied",
	Run:  runLockGuard,
}

var guardedByRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)

// collectGuards maps each annotated field object to the bare name of its
// guarding mutex ("db.mu" → "mu": the lock is matched by final name,
// whatever path the accessor reaches it through).
func collectGuards(pass *Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	note := func(field *ast.Field, text string) {
		m := guardedByRE.FindStringSubmatch(text)
		if m == nil {
			return
		}
		guard := m[1]
		if i := strings.LastIndex(guard, "."); i >= 0 {
			guard = guard[i+1:]
		}
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				guards[obj] = guard
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Doc != nil {
					note(field, field.Doc.Text())
				}
				if field.Comment != nil {
					note(field, field.Comment.Text())
				}
			}
			return true
		})
	}
	return guards
}

func runLockGuard(pass *Pass) {
	guards := collectGuards(pass)
	forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		checkMutexCopies(pass, fd)
		if len(guards) == 0 {
			return
		}
		checkGuardedAccess(pass, fd, guards)
	})
}

func checkGuardedAccess(pass *Pass, fd *ast.FuncDecl, guards map[types.Object]string) {
	name := fd.Name.Name
	if strings.HasSuffix(name, "Locked") || strings.HasSuffix(name, "locked") {
		return
	}
	if funcHasDirective(fd, "lsm:locked") {
		return
	}
	info := pass.Info

	// Mutex names this function visibly locks (flow-insensitively):
	// db.mu.Lock(), s.mu.RLock(), mu.Lock().
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch mu := unparen(sel.X).(type) {
		case *ast.Ident:
			locked[mu.Name] = true
		case *ast.SelectorExpr:
			locked[mu.Sel.Name] = true
		}
		return true
	})

	unpublished := localCompositeInits(info, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := objOf(info, sel.Sel)
		if obj == nil {
			return true
		}
		guard, guarded := guards[obj]
		if !guarded || locked[guard] {
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if rObj := objOf(info, root); rObj != nil && unpublished[rObj] {
				return true
			}
		}
		if pass.SuppressedAt(sel.Pos(), "lsm:locked") {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"%s is guarded by %s but %s does not lock it (take the lock, suffix the name Locked, or annotate //lsm:locked)",
			sel.Sel.Name, guard, name)
		return true
	})
}

// checkMutexCopies flags by-value movement of mutex-containing structs.
func checkMutexCopies(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if _, isPtr := field.Type.(*ast.StarExpr); isPtr {
				continue
			}
			t := info.Types[field.Type].Type
			if t == nil || !containsMutex(t, 0) {
				continue
			}
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				continue
			}
			pass.Reportf(field.Type.Pos(), "%s copies a mutex-containing struct by value (%s); pass a pointer", what, types.TypeString(t, types.RelativeTo(pass.Pkg)))
		}
	}
	checkFieldList(fd.Recv, "receiver")
	checkFieldList(fd.Type.Params, "parameter")
	checkFieldList(fd.Type.Results, "result")

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Rhs {
				star, ok := unparen(st.Rhs[i]).(*ast.StarExpr)
				if !ok {
					continue
				}
				t := info.Types[star].Type
				if t != nil && containsMutex(t, 0) {
					pass.Reportf(st.Rhs[i].Pos(), "dereference copies a mutex-containing struct (%s); keep the pointer", types.TypeString(t, types.RelativeTo(pass.Pkg)))
				}
			}
		case *ast.RangeStmt:
			if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := info.Defs[id]; obj != nil && containsMutex(obj.Type(), 0) {
					pass.Reportf(id.Pos(), "range copies a mutex-containing struct (%s); range over indices or pointers", types.TypeString(obj.Type(), types.RelativeTo(pass.Pkg)))
				}
			}
		}
		return true
	})
}
