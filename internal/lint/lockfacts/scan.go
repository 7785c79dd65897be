package lockfacts

import (
	"go/ast"
	"go/token"
)

// collectFacts fills fn.Calls and fn.Acquires by a flat walk of the
// body. Function literals are skipped — a literal's locks and calls are
// not the enclosing function's facts (go-spawned literals get their own
// Func nodes; other literals are a documented blind spot). go statements
// are skipped entirely: the spawned work does not run under the caller's
// locks, so a GoStmt is not a call-graph edge.
func collectFacts(idx *resolveIndex, fn *Func) {
	pkg := fn.Pkg
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok && isMutexRecv(pkg, sel) {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if class := lockClass(pkg, sel.X); class != "" {
						fn.Acquires = append(fn.Acquires, Acquire{Class: class, Pos: x.Pos()})
					}
					return true
				case "Unlock", "RUnlock", "TryLock", "TryRLock":
					return true
				}
			}
			if ids := idx.callees(pkg, x); len(ids) > 0 {
				fn.Calls = append(fn.Calls, Call{Pos: x.Pos(), Callees: ids})
			}
			return true
		}
		return true
	})
}

// isMutexRecv reports whether sel's receiver expression has mutex type,
// i.e. the selector is a sync.Mutex/RWMutex method call.
func isMutexRecv(pkg *Pkg, sel *ast.SelectorExpr) bool {
	tv, ok := pkg.Info.Types[sel.X]
	return ok && tv.Type != nil && isMutexType(tv.Type)
}

// edgeScanner walks one function body in source order tracking the
// multiset of class locks held, emitting an Edge for every acquisition
// (direct or through a call) performed under a held lock.
//
// The walk is a linear approximation, not a dataflow lattice. Two rules
// keep it honest on the engine's real control flow:
//
//   - a branch body that ends in a terminator (return, panic, break,
//     continue, goto) restores the held set to its entry snapshot, so
//     early-exit unlock paths ("if closed { mu.Unlock(); return }") do
//     not leak into the fallthrough path;
//   - a branch body that falls through keeps its effects, so conditional
//     acquisitions with deferred unlocks ("if c != nil {
//     c.mu.Lock(); defer Unlock }") stay held afterwards.
//
// switch cases and select arms are alternatives, so each is scanned from
// the same entry snapshot and restored. Deferred Unlock is ignored (the
// lock is held to function end); deferred ordinary calls are processed
// under the held set at the defer site.
type edgeScanner struct {
	p        *Program
	fn       *Func
	pkg      *Pkg
	calleeAt map[token.Pos][]string
	held     []string // classes, in acquisition order
	edges    []Edge
}

func (p *Program) scanEdges(fn *Func) []Edge {
	s := &edgeScanner{p: p, fn: fn, pkg: fn.Pkg, calleeAt: map[token.Pos][]string{}}
	for _, c := range fn.Calls {
		s.calleeAt[c.Pos] = c.Callees
	}
	s.block(fn.Body)
	return s.edges
}

func (s *edgeScanner) snapshot() []string { return append([]string(nil), s.held...) }

func (s *edgeScanner) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		s.stmt(st)
	}
}

// branch scans a conditionally executed block, undoing its lock effects
// when the block cannot fall through.
func (s *edgeScanner) branch(b *ast.BlockStmt) {
	entry := s.snapshot()
	s.block(b)
	if terminates(b) {
		s.held = entry
	}
}

// alternative scans one switch case / select arm from the entry state
// and always restores: alternatives do not sequence.
func (s *edgeScanner) alternative(stmts []ast.Stmt, comm ast.Stmt) {
	entry := s.snapshot()
	if comm != nil {
		s.stmt(comm)
	}
	for _, st := range stmts {
		s.stmt(st)
	}
	s.held = entry
}

func (s *edgeScanner) stmt(st ast.Stmt) {
	switch x := st.(type) {
	case *ast.BlockStmt:
		s.block(x)
	case *ast.IfStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.expr(x.Cond)
		s.branch(x.Body)
		switch e := x.Else.(type) {
		case *ast.BlockStmt:
			s.branch(e)
		case *ast.IfStmt:
			s.stmt(e)
		}
	case *ast.ForStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.expr(x.Cond)
		s.branch(x.Body)
		if x.Post != nil {
			s.stmt(x.Post)
		}
	case *ast.RangeStmt:
		s.expr(x.X)
		s.branch(x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		s.expr(x.Tag)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.alternative(cc.Body, nil)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.alternative(cc.Body, nil)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.alternative(cc.Body, cc.Comm)
			}
		}
	case *ast.LabeledStmt:
		s.stmt(x.Stmt)
	case *ast.DeferStmt:
		s.call(x.Call, true)
	case *ast.GoStmt:
		// Spawned work runs under its own (empty) held set.
	case *ast.ExprStmt:
		s.expr(x.X)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			s.expr(r)
		}
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			s.expr(r)
		}
		for _, l := range x.Lhs {
			s.expr(l)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v)
					}
				}
			}
		}
	case *ast.SendStmt:
		s.expr(x.Chan)
		s.expr(x.Value)
	case *ast.IncDecStmt:
		s.expr(x.X)
	}
}

// expr visits every call in an expression in pre-order, skipping
// function literals.
func (s *edgeScanner) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			s.call(call, false)
		}
		return true
	})
}

func (s *edgeScanner) call(call *ast.CallExpr, deferred bool) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && isMutexRecv(s.pkg, sel) {
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if class := lockClass(s.pkg, sel.X); class != "" {
				s.acquire(class, call.Pos())
			}
			return
		case "Unlock", "RUnlock":
			if !deferred {
				s.release(lockClass(s.pkg, sel.X))
			}
			return
		case "TryLock", "TryRLock":
			return
		}
	}
	if len(s.held) == 0 {
		return
	}
	for _, id := range s.calleeAt[call.Pos()] {
		ta := s.p.TransAcquires(id)
		for _, class := range sortedKeys(ta) {
			w := ta[class]
			s.emit(class, call.Pos(), w.Chain, w.Pos)
		}
	}
}

func (s *edgeScanner) acquire(class string, pos token.Pos) {
	s.emit(class, pos, nil, pos)
	s.held = append(s.held, class)
}

func (s *edgeScanner) release(class string) {
	if class == "" {
		return
	}
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i] == class {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return
		}
	}
}

// emit records From→class edges for every distinct held class. Self-edges
// are dropped: classes are instance-blind (see package doc).
func (s *edgeScanner) emit(class string, pos token.Pos, chain []string, acqPos token.Pos) {
	seen := map[string]bool{}
	for _, h := range s.held {
		if h == class || seen[h] {
			continue
		}
		seen[h] = true
		s.edges = append(s.edges, Edge{
			From:   h,
			To:     class,
			Pos:    pos,
			Holder: s.fn.Display,
			Chain:  chain,
			AcqPos: acqPos,
		})
	}
}

// terminates reports whether a block's last statement makes the
// fallthrough edge unreachable.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok != token.FALLTHROUGH
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last)
	}
	return false
}
