package lint

import (
	"go/ast"
	"strings"
)

// IKeyCmp forbids raw byte comparison of internal keys outside
// internal/ikey. Internal keys order by user key ascending then sequence
// number descending; bytes.Compare/bytes.Equal ignore the trailer
// encoding and produce a different order, which silently breaks merge
// iteration, tombstone shadowing and manifest range checks. Comparing
// *user* keys (the result of ikey.UserKey) with bytes is fine and
// common; the analyzer therefore only fires when an argument is
// recognisably an internal key:
//
//   - a call to ikey.Make / ikey.SeekKey / ikey.AppendSeek
//   - an iterator Key() call (iterators yield internal keys)
//   - a name following the repo's internal-key conventions: ik, ika,
//     ikb, an "ik"-prefixed or "internalKey"-prefixed identifier, or the
//     manifest bound fields Smallest/Largest
var IKeyCmp = &Analyzer{
	Name: "ikeycmp",
	Doc:  "internal keys are compared with ikey.Compare, never bytes.Compare/bytes.Equal",
	Run:  runIKeyCmp,
}

func runIKeyCmp(pass *Pass) {
	if pkgPathTail(pass.Pkg.Path(), "ikey") {
		return
	}
	info := pass.Info
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			isCmp := isPkgFunc(info, call, "bytes", "Compare")
			isEq := isPkgFunc(info, call, "bytes", "Equal")
			if !isCmp && !isEq {
				return true
			}
			for _, arg := range call.Args {
				if !isInternalKeyExpr(pass, arg) {
					continue
				}
				if pass.SuppressedAt(call.Pos(), "lsm:aliasok") {
					continue
				}
				fix := "ikey.Compare"
				if isEq {
					fix = "ikey.Compare(...) == 0"
				}
				pass.Reportf(call.Pos(), "raw byte comparison of internal key %s; use %s (user-key asc, seq desc)", exprText(arg), fix)
				return true
			}
			return true
		})
	}
}

// isInternalKeyExpr reports whether e is recognisably an internal key.
func isInternalKeyExpr(pass *Pass, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.CallExpr:
		if isPkgFunc(pass.Info, x, "ikey", "Make") ||
			isPkgFunc(pass.Info, x, "ikey", "SeekKey") ||
			isPkgFunc(pass.Info, x, "ikey", "AppendSeek") {
			return true
		}
		return iterMethodCall(pass.Info, x, "Key")
	case *ast.Ident:
		return internalKeyName(x.Name)
	case *ast.SelectorExpr:
		return internalKeyName(x.Sel.Name)
	case *ast.SliceExpr:
		return isInternalKeyExpr(pass, x.X)
	}
	return false
}

// internalKeyName matches the repo's internal-key naming conventions.
func internalKeyName(name string) bool {
	switch name {
	case "ik", "ika", "ikb", "Smallest", "Largest":
		return true
	}
	if strings.HasPrefix(name, "internalKey") || strings.HasPrefix(name, "InternalKey") {
		return true
	}
	// ikFoo, ikPrev — an "ik" prefix followed by an exported-style hump.
	if len(name) > 2 && strings.HasPrefix(name, "ik") && name[2] >= 'A' && name[2] <= 'Z' {
		return true
	}
	return false
}

// exprText renders a short source-ish form of e for diagnostics.
func exprText(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if root := rootIdent(x.X); root != nil {
			return root.Name + "." + x.Sel.Name
		}
		return x.Sel.Name
	case *ast.CallExpr:
		return exprText(x.Fun) + "(...)"
	case *ast.SliceExpr:
		return exprText(x.X) + "[...]"
	}
	return "expression"
}
