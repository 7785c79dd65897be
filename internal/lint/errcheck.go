package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ErrCheck is the repo's errcheck-lite. Two rules:
//
//  1. A call whose only result is an error, used as a bare statement,
//     silently drops the error. Durability code cannot afford that —
//     Close on an *os.File is where write errors surface. Discarding
//     deliberately is spelled `_ = f.Close()`, which keeps the decision
//     visible in the diff.
//  2. fmt.Errorf that formats an error argument without %w flattens the
//     chain and breaks errors.Is/As across package boundaries.
//
// Deferred and go'd calls are exempt from rule 1: `defer f.Close()` on a
// read-only file is idiomatic, and the flagged pattern is the inline
// statement where the error was simply forgotten.
//
// Exception to the exemption (rule 3): flush/sync calls that durability
// depends on. The group-commit pipeline buffers the WAL behind a
// bufio.Writer, so `defer bw.Flush()` or `go w.Sync()` silently drops
// the very error that says "your acked commit is not on disk". Deferred
// (*bufio.Writer).Flush and wal writer Sync/Flush are flagged: call them
// inline and check the error (or wrap them in a closure that stores it).
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "no silently ignored error returns; fmt.Errorf wraps with %w",
	Run:  runErrCheck,
}

var errType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runErrCheck(pass *Pass) {
	info := pass.Info
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, ok := unparen(st.X).(*ast.CallExpr)
				if !ok || !callReturnsOnlyError(info, call) {
					return true
				}
				if pass.SuppressedAt(call.Pos(), "lsm:errok") {
					return true
				}
				pass.Reportf(call.Pos(), "error returned by %s is silently ignored; handle it or assign to _ explicitly", calleeText(call))
			case *ast.DeferStmt:
				checkDeferredFlush(pass, st.Call, "deferred")
			case *ast.GoStmt:
				checkDeferredFlush(pass, st.Call, "go'd")
			case *ast.CallExpr:
				checkErrorfWrap(pass, st)
			}
			return true
		})
	}
}

// checkDeferredFlush implements rule 3: a deferred or go'd Flush/Sync on
// a durability-bearing writer discards the error that write path exists
// to surface.
func checkDeferredFlush(pass *Pass, call *ast.CallExpr, how string) {
	if !isDurabilityFlush(pass.Info, call) {
		return
	}
	if pass.SuppressedAt(call.Pos(), "lsm:errok") {
		return
	}
	pass.Reportf(call.Pos(),
		"%s %s discards its error, and durability depends on it; call it inline and check the error", how, calleeText(call))
}

// isDurabilityFlush matches (*bufio.Writer).Flush and Sync/Flush methods
// on the wal package's Writer.
func isDurabilityFlush(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := objOf(info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Name() != "Writer" {
		return false
	}
	switch {
	case fn.Pkg().Path() == "bufio":
		return fn.Name() == "Flush"
	case pkgPathTail(fn.Pkg().Path(), "wal"):
		return fn.Name() == "Sync" || fn.Name() == "Flush"
	}
	return false
}

// callReturnsOnlyError reports whether call's signature is exactly
// (...) error.
func callReturnsOnlyError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	// Multi-value results come back as a tuple; single results as the
	// bare type.
	if _, isTuple := tv.Type.(*types.Tuple); isTuple {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// checkErrorfWrap flags fmt.Errorf("...%v...", err) — an error argument
// formatted without %w.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	info := pass.Info
	if !isPkgFunc(info, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if !types.Implements(tv.Type, errType) {
			continue
		}
		if pass.SuppressedAt(call.Pos(), "lsm:errok") {
			return
		}
		pass.Reportf(call.Pos(), "fmt.Errorf formats an error without %%w; the chain is lost to errors.Is/As")
		return
	}
}

// calleeText renders the called function for the diagnostic.
func calleeText(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if root := rootIdent(fun.X); root != nil {
			return root.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
