// Package lockfacts is the whole-program substrate beneath lsmlint's
// lockorder analyzer (DESIGN.md §5.8). From the packages the lint
// loader type-checked it builds:
//
//   - a whole-program call graph over declared functions and go-spawned
//     function literals, with static calls resolved by object identity
//     and interface-method calls resolved to every concrete
//     implementation declared in the program;
//   - lock classes: every mutex that lives in a named struct field or a
//     package-level variable gets a stable name like "lsm.DB.mu"
//     (package-path tail, owning type, field), so acquisitions of the
//     same field across different call paths — and different instances —
//     fold into one node of the lock-order graph;
//   - per-function lock facts: the acquisitions a function performs
//     directly (seeded by Lock/RLock syntax) and, transitively, through
//     everything it calls, each with a deterministic witness chain
//     naming the intermediate functions;
//   - acquisition edges: lock A held at a point where lock B is
//     acquired (directly or through a call), the raw material for the
//     lockorder analyzer's cycle and blessed-partial-order checks.
//
// The engine is deliberately approximate in documented ways (see the
// soundness caveats in DESIGN.md §5.8): classes are instance-blind, so
// self-edges (A held while acquiring another instance of A) are dropped;
// calls through function values and stdlib interfaces are invisible;
// held-set tracking inside a body is a linear scan with branch handling,
// not a dataflow lattice. Every approximation errs toward missing an
// edge, never toward inventing one, except for instance-blindness —
// which is why the blessed order is a repo-wide contract, not a proof.
package lockfacts

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Pkg is one type-checked package handed to Build. It mirrors the lint
// loader's Package without importing it (the lint package imports this
// one).
type Pkg struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// Tail returns the import-path tail used in display names.
func (p *Pkg) Tail() string {
	if i := strings.LastIndex(p.Path, "/"); i >= 0 {
		return p.Path[i+1:]
	}
	return p.Path
}

// Func is one node of the whole-program call graph: a declared function
// or method, or a function literal spawned by a go statement (a
// goroutine root).
type Func struct {
	ID      string // canonical, unique: "<import path>.(<recv>).<name>"
	Display string // short, for witness chains: "<pkg tail>.<recv>.<name>"
	Pkg     *Pkg
	Body    *ast.BlockStmt

	// Calls are the statically resolvable call sites in Body, in source
	// order. Interface-method calls carry one callee per implementation.
	Calls []Call
	// Acquires are the direct Lock/RLock sites on class locks in Body,
	// in source order.
	Acquires []Acquire
}

// Call is one call site with its resolved callee set.
type Call struct {
	Pos     token.Pos
	Callees []string // sorted callee IDs present in the program
}

// Acquire is one direct lock acquisition of a class lock.
type Acquire struct {
	Class string
	Pos   token.Pos
}

// Witness is a deterministic path to a transitive acquisition: Chain is
// the display names from the first callee down to the function containing
// the Lock call at Pos.
type Witness struct {
	Chain []string
	Pos   token.Pos
}

// Edge records lock From held at the point where lock To is acquired —
// directly (Chain nil, Pos is the Lock call) or through a call (Pos is
// the call site, Chain walks to the acquiring function, AcqPos is the
// Lock call inside it).
type Edge struct {
	From, To string
	Pos      token.Pos
	Holder   string   // display name of the function holding From
	Chain    []string // nil for a direct acquisition in Holder
	AcqPos   token.Pos
}

// Path renders the witness call path of the edge, starting at Holder.
func (e Edge) Path() string {
	parts := append([]string{e.Holder}, e.Chain...)
	return strings.Join(parts, " -> ")
}

// Program is the built whole-program index.
type Program struct {
	Fset  *token.FileSet
	Funcs map[string]*Func
	// FuncIDs is Funcs' key set in sorted order; every deterministic
	// traversal iterates it rather than the map.
	FuncIDs []string

	taCache  map[string]map[string]Witness
	edges    []Edge
	hasEdges bool
}

// Build indexes pkgs into a Program. Determinism: packages are processed
// in the given order, functions within a package in file/position order,
// and all derived tables are keyed and iterated in sorted order.
func Build(pkgs []*Pkg) *Program {
	p := &Program{
		Funcs:   map[string]*Func{},
		taCache: map[string]map[string]Witness{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}

	idx := newResolveIndex(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := &Func{
					ID:      declID(pkg, fd),
					Display: declDisplay(pkg, fd),
					Pkg:     pkg,
					Body:    fd.Body,
				}
				p.Funcs[fn.ID] = fn
			}
		}
		// Go-spawned function literals are goroutine roots: they run with
		// an empty held set and their bodies carry their own lock facts.
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok || lit.Body == nil {
					return true
				}
				pos := pkg.Fset.Position(lit.Pos())
				fn := &Func{
					ID:      pkg.Path + ".$go:" + pos.Filename + ":" + strconv.Itoa(pos.Line) + ":" + strconv.Itoa(pos.Column),
					Display: pkg.Tail() + ".go@" + strconv.Itoa(pos.Line),
					Pkg:     pkg,
					Body:    lit.Body,
				}
				p.Funcs[fn.ID] = fn
				return true
			})
		}
	}
	for id := range p.Funcs {
		p.FuncIDs = append(p.FuncIDs, id)
	}
	sort.Strings(p.FuncIDs)

	for _, id := range p.FuncIDs {
		collectFacts(idx, p.Funcs[id])
	}
	return p
}

// TransAcquires returns every lock class the function acquires directly
// or through its (transitive) callees, each with a deterministic witness
// chain. Cycles in the call graph are cut at the back edge; the memoized
// first witness wins, and because computation always proceeds in sorted
// FuncID order the result is stable across runs.
func (p *Program) TransAcquires(id string) map[string]Witness {
	return p.transAcquires(id, map[string]bool{})
}

func (p *Program) transAcquires(id string, inProgress map[string]bool) map[string]Witness {
	if cached, ok := p.taCache[id]; ok {
		return cached
	}
	fn := p.Funcs[id]
	if fn == nil {
		return nil
	}
	inProgress[id] = true
	out := map[string]Witness{}
	for _, acq := range fn.Acquires {
		if _, ok := out[acq.Class]; !ok {
			out[acq.Class] = Witness{Chain: []string{fn.Display}, Pos: acq.Pos}
		}
	}
	for _, call := range fn.Calls {
		for _, callee := range call.Callees {
			if inProgress[callee] {
				continue
			}
			for _, class := range sortedKeys(p.transAcquires(callee, inProgress)) {
				if _, ok := out[class]; ok {
					continue
				}
				sub := p.taCache[callee][class]
				chain := make([]string, 0, len(sub.Chain)+1)
				chain = append(chain, fn.Display)
				chain = append(chain, sub.Chain...)
				out[class] = Witness{Chain: chain, Pos: sub.Pos}
			}
		}
	}
	delete(inProgress, id)
	p.taCache[id] = out
	return out
}

// Edges computes (and caches) every acquisition edge in the program.
// Self-edges (same class held and acquired) are dropped: classes are
// instance-blind, and the engine's unlock-then-relock patterns would
// otherwise report every re-acquisition of the lock a caller holds.
func (p *Program) Edges() []Edge {
	if p.hasEdges {
		return p.edges
	}
	p.hasEdges = true
	for _, id := range p.FuncIDs {
		p.edges = append(p.edges, p.scanEdges(p.Funcs[id])...)
	}
	return p.edges
}

func sortedKeys(m map[string]Witness) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
