package lockfacts

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Cross-package identity is the central problem this file solves: the
// loader type-checks each target package from source while its
// dependencies come from gc export data, so the *types.Object for the
// same function differs between the two views. All graph keys are
// therefore canonical strings derived from package path, receiver type
// name, and member name — equal across type-checker universes.

// funcKey canonicalizes a function or method object.
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		if named := namedOfType(recv.Type()); named != nil {
			return pkg.Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		return ""
	}
	return pkg.Path() + "." + fn.Name()
}

func declID(pkg *Pkg, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if name := recvTypeName(fd.Recv.List[0].Type); name != "" {
			return pkg.Path + ".(" + name + ")." + fd.Name.Name
		}
	}
	return pkg.Path + "." + fd.Name.Name
}

func declDisplay(pkg *Pkg, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if name := recvTypeName(fd.Recv.List[0].Type); name != "" {
			return pkg.Tail() + "." + name + "." + fd.Name.Name
		}
	}
	return pkg.Tail() + "." + fd.Name.Name
}

func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

func namedOfType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// resolveIndex answers "which program functions can this call reach".
type resolveIndex struct {
	// declared maps canonical function keys to the IDs Build assigns —
	// they are the same strings today, but the indirection keeps the
	// invariant in one place.
	declared map[string]bool
	// methodsBySig maps "name\x00signature" to the sorted canonical IDs
	// of every declared concrete method with that shape.
	methodsBySig map[string][]string
	// methodSets maps "<path>.<Type>" to its method name→signature set,
	// for full interface-satisfaction checks.
	methodSets map[string]map[string]string
	// programPkgs is the set of import paths type-checked from source;
	// interface calls are resolved only for interfaces declared in them,
	// so stdlib shapes like io.Closer cannot fabricate edges between
	// unrelated Close methods.
	programPkgs map[string]bool
}

func newResolveIndex(pkgs []*Pkg) *resolveIndex {
	idx := &resolveIndex{
		declared:     map[string]bool{},
		methodsBySig: map[string][]string{},
		methodSets:   map[string]map[string]string{},
		programPkgs:  map[string]bool{},
	}
	for _, pkg := range pkgs {
		idx.programPkgs[pkg.Path] = true
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := declID(pkg, fd)
				idx.declared[id] = true
				if fd.Recv == nil || len(fd.Recv.List) == 0 {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				recvName := recvTypeName(fd.Recv.List[0].Type)
				if recvName == "" {
					continue
				}
				sig := sigString(obj)
				idx.methodsBySig[fd.Name.Name+"\x00"+sig] = append(idx.methodsBySig[fd.Name.Name+"\x00"+sig], id)
				typeKey := pkg.Path + "." + recvName
				if idx.methodSets[typeKey] == nil {
					idx.methodSets[typeKey] = map[string]string{}
				}
				idx.methodSets[typeKey][fd.Name.Name] = sig
			}
		}
	}
	for k := range idx.methodsBySig {
		sort.Strings(idx.methodsBySig[k])
	}
	return idx
}

// sigString renders a function signature (receiver excluded) with
// full-package-path qualification, so signatures computed in different
// type-checker universes compare equal.
func sigString(fn *types.Func) string {
	return types.TypeString(fn.Type(), func(p *types.Package) string { return p.Path() })
}

// callees resolves one call expression to the canonical IDs of program
// functions it may invoke. Static calls resolve to at most one; calls
// through an interface declared in a program package resolve to every
// declared concrete type that satisfies the full interface and has a
// method matching the callee's name and signature. Calls through
// function values, stdlib interfaces, and builtins resolve to none.
func (idx *resolveIndex) callees(pkg *Pkg, call *ast.CallExpr) []string {
	var fnObj *types.Func
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fnObj, _ = pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fnObj, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
		if fnObj != nil {
			if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					return idx.interfaceCallees(fnObj, iface)
				}
			}
		}
	default:
		return nil
	}
	if fnObj == nil {
		return nil
	}
	if sig, ok := fnObj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			// Method expression or qualified interface method: same rule.
			return idx.interfaceCallees(fnObj, sig.Recv().Type().Underlying().(*types.Interface))
		}
	}
	key := funcKey(fnObj)
	if key != "" && idx.declared[key] {
		return []string{key}
	}
	return nil
}

func (idx *resolveIndex) interfaceCallees(fn *types.Func, iface *types.Interface) []string {
	// Only interfaces declared inside the program are resolved; a
	// single-method stdlib interface (io.Closer) would otherwise connect
	// every Close method in the repo.
	if fn.Pkg() == nil || !idx.programPkgs[fn.Pkg().Path()] {
		return nil
	}
	want := fn.Name() + "\x00" + sigString(fn)
	candidates := idx.methodsBySig[want]
	if len(candidates) == 0 {
		return nil
	}
	// The full interface must be satisfied by name+signature, not just
	// the called method.
	need := map[string]string{}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		need[m.Name()] = types.TypeString(m.Type(), func(p *types.Package) string { return p.Path() })
	}
	var out []string
	for _, id := range candidates {
		typeKey := id[:strings.Index(id, ".(")] + "." + id[strings.Index(id, ".(")+2:strings.Index(id, ").")]
		set := idx.methodSets[typeKey]
		ok := true
		for name, sig := range need {
			if set[name] != sig {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// lockClass names the mutex behind expr (the receiver of a Lock call):
// "<pkg tail>.<Type>.<field>" for struct fields, "<pkg tail>.<name>" for
// package-level variables, "" for locals and anything unresolvable.
func lockClass(pkg *Pkg, expr ast.Expr) string {
	switch x := unparen(expr).(type) {
	case *ast.SelectorExpr:
		obj, ok := pkg.Info.Uses[x.Sel].(*types.Var)
		if !ok || !obj.IsField() {
			return ""
		}
		if sel, ok := pkg.Info.Selections[x]; ok {
			if named := namedOfType(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				return pathTail(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
		return ""
	case *ast.Ident:
		obj, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok || obj.IsField() || obj.Pkg() == nil {
			return ""
		}
		// Package-level variable?
		if obj.Parent() == obj.Pkg().Scope() {
			return pathTail(obj.Pkg().Path()) + "." + obj.Name()
		}
		return ""
	}
	return ""
}

func pathTail(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named := namedOfType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
