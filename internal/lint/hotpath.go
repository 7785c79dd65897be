package lint

import (
	"go/ast"
	"go/types"
)

// HotPath audits functions annotated //lsm:hotpath — the per-operation
// read/compare path where the engine promises zero steady-state
// allocation and no syscalls. Inside such a function the analyzer
// forbids:
//
//   - time.Now — wall-clock reads are the sampled tracer's job
//     (Trace.Now is nil-cheap and rate-limited); a raw time.Now costs a
//     vDSO call per key visited
//   - fmt.Sprintf / fmt.Sprint / fmt.Sprintln — each allocates; hot
//     paths return sentinel errors or write into caller buffers
//   - flate.NewWriter / flate.NewReader — a compressor is about 1 MB of
//     zeroed state and an inflater about 40 KB; block paths take one from
//     a sync.Pool and Reset it (the pool's New func is not a hot path)
//   - io.ReadAll — grows a fresh buffer by doubling on every call and
//     returns it with spare capacity; read into a reused buffer
//   - json.Unmarshal / json.Marshal / json.NewDecoder — reflection and a
//     fresh map or buffer per call; per-record paths scan the document in
//     place (core.scanAttrs) or use the binary codecs
//   - sort.Slice / sort.SliceStable / sort.Sort — the reflective swapper,
//     the less closure and the interface conversion allocate on every
//     call; hot paths keep their input ordered (core's newest-first
//     candidate streams) or sift a heap in place
//   - growing append: append(dst, ...) where dst is neither re-sliced
//     (dst[:n], the reuse idiom) nor rooted in a parameter/receiver
//     (caller-owned scratch) — i.e. an append that can only grow a
//     fresh local allocation per call
//
// Calls inside panic(...) arguments are exempt: corruption panics are
// off the hot path by definition. Individual sites are waived with
// //lsm:allocok.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//lsm:hotpath functions avoid time.Now, fmt.Sprintf, per-call flate codecs, io.ReadAll, encoding/json, sort.Slice/Sort and unbounded append",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		if !funcHasDirective(fd, "lsm:hotpath") {
			return
		}
		checkHotPathFunc(pass, fd)
	})
}

func checkHotPathFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// Objects owned by the caller: parameters and receiver. Appending
	// into these reuses caller-provided capacity, the scratch pattern.
	callerOwned := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					callerOwned[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)

	// panicArgs collects call nodes nested inside panic(...) arguments.
	panicArgs := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			for _, arg := range call.Args {
				ast.Inspect(arg, func(inner ast.Node) bool {
					if c, ok := inner.(*ast.CallExpr); ok {
						panicArgs[c] = true
					}
					return true
				})
			}
		}
		return true
	})

	report := func(n ast.Node, format string, args ...interface{}) {
		if pass.SuppressedAt(n.Pos(), "lsm:allocok") {
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || panicArgs[call] {
			return true
		}
		switch {
		case isPkgFunc(info, call, "time", "Now"):
			report(call, "time.Now in //lsm:hotpath %s; route timing through the sampled tracer (Trace.Now)", fd.Name.Name)
		case isPkgFunc(info, call, "fmt", "Sprintf"),
			isPkgFunc(info, call, "fmt", "Sprint"),
			isPkgFunc(info, call, "fmt", "Sprintln"):
			report(call, "fmt string formatting allocates in //lsm:hotpath %s; use sentinel errors or caller buffers", fd.Name.Name)
		case isPkgFunc(info, call, "compress/flate", "NewWriter"),
			isPkgFunc(info, call, "compress/flate", "NewReader"):
			report(call, "flate codec built per call in //lsm:hotpath %s; take one from a sync.Pool and Reset it", fd.Name.Name)
		case isPkgFunc(info, call, "io", "ReadAll"):
			report(call, "io.ReadAll in //lsm:hotpath %s allocates and over-sizes its result; read into a reused buffer", fd.Name.Name)
		case isPkgFunc(info, call, "encoding/json", "Unmarshal"),
			isPkgFunc(info, call, "encoding/json", "Marshal"),
			isPkgFunc(info, call, "encoding/json", "NewDecoder"):
			report(call, "encoding/json in //lsm:hotpath %s reflects and allocates per call; scan the bytes in place", fd.Name.Name)
		case isPkgFunc(info, call, "sort", "Slice"),
			isPkgFunc(info, call, "sort", "SliceStable"),
			isPkgFunc(info, call, "sort", "Sort"):
			report(call, "sort in //lsm:hotpath %s allocates per call; keep the input ordered or sift a heap in place", fd.Name.Name)
		case isBuiltinAppend(info, call) && len(call.Args) > 0:
			if hotAppendOK(info, callerOwned, call.Args[0]) {
				return true
			}
			report(call, "growing append in //lsm:hotpath %s; reuse a scratch buffer (dst[:0]) or mark //lsm:allocok", fd.Name.Name)
		}
		return true
	})
}

// hotAppendOK reports whether the append destination reuses existing
// capacity: a slice expression (buf[:0], key[:shared]) or any expression
// rooted in a caller-owned parameter/receiver object.
func hotAppendOK(info *types.Info, callerOwned map[types.Object]bool, dst ast.Expr) bool {
	if _, ok := unparen(dst).(*ast.SliceExpr); ok {
		return true
	}
	if root := rootIdent(dst); root != nil {
		if obj := objOf(info, root); obj != nil && callerOwned[obj] {
			return true
		}
	}
	return false
}
