// Package lint implements lsmlint, the engine's repo-specific static
// analysis layer (DESIGN.md §5.4). The concurrent write pipeline and the
// read path rest on invariants the type system cannot express — iterator
// byte slices are only valid until the next Next/Seek, mutex-guarded
// fields must not be touched off-lock, internal keys must be compared
// through ikey.Compare, locks are taken in one blessed order — so this
// package checks them mechanically on every commit (`make lint`).
//
// The framework is a deliberately small re-implementation of the shape of
// golang.org/x/tools/go/analysis using only the standard library: an
// Analyzer is a named Run function over a Pass; a Pass wraps one
// type-checked package; diagnostics carry positions and stable messages
// that the testdata harness matches against `// want "regexp"` comments.
//
// The comment directives that tune the analyzers at specific sites (the
// whole set: TestRepoIsClean rejects any other //lsm: word):
//
//	//lsm:hotpath  (function doc)  — hotpath checks this function
//	//lsm:locked   (function doc or end of line) — lockguard trusts the
//	                                 caller to hold the guarding mutex
//	                                 (or the object to be unpublished)
//	//lsm:aliasok  (end of line)   — sliceretain/ikeycmp accept this line
//	//lsm:allocok  (end of line)   — hotpath accepts this allocation
//	//lsm:errok    (end of line)   — errcheck accepts this line
//	//lsm:lockok   (end of line)   — lockorder accepts this acquisition
//	//lsm:lockorder A < B < C      — declares a chain of the blessed
//	                                 lock partial order (DESIGN.md §5.8)
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check. Package analyzers set Run, which inspects
// one type-checked package at a time; whole-program analyzers set
// RunProgram instead, which sees every loaded package plus the lockfacts
// call graph at once.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	// lineDirectives maps file → line → the set of //lsm: directives
	// appearing in comments on that line (suppressions like lsm:aliasok).
	lineDirectives map[string]map[int][]string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether a comment on pos's line carries the given
// directive (e.g. "lsm:aliasok"). Directives always suppress at line
// granularity, so one marker covers a multi-finding line.
func (p *Pass) SuppressedAt(pos token.Pos, directive string) bool {
	position := p.Fset.Position(pos)
	return hasDirective(p.lineDirectives[position.Filename], position.Line, directive)
}

func hasDirective(lines map[int][]string, line int, directive string) bool {
	for _, d := range lines[line] {
		if d == directive {
			return true
		}
	}
	return false
}

// buildLineDirectives scans every comment of every file once, recording
// //lsm: directives by file and line.
func buildLineDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lsm:") {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					out[pos.Filename] = lines
				}
				// A directive comment on its own line applies to the next
				// line too, matching gofmt's placement of long markers.
				for _, d := range strings.Fields(text) {
					if strings.HasPrefix(d, "lsm:") {
						lines[pos.Line] = append(lines[pos.Line], d)
					}
				}
			}
		}
	}
	return out
}

// funcHasDirective reports whether decl's doc comment carries directive
// (e.g. "lsm:hotpath").
func funcHasDirective(decl *ast.FuncDecl, directive string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		for _, d := range strings.Fields(text) {
			if d == directive {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package — whole-program
// analyzers once over all packages together — and returns the combined
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		directives := buildLineDirectives(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:       a,
				Fset:           pkg.Fset,
				Files:          pkg.Files,
				Pkg:            pkg.Types,
				Info:           pkg.Info,
				diags:          &diags,
				lineDirectives: directives,
			}
			a.Run(pass)
		}
	}
	var progPass *ProgramPass
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if progPass == nil {
			progPass = newProgramPass(pkgs, &diags)
		}
		pp := *progPass
		pp.Analyzer = a
		a.RunProgram(&pp)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return diags
}

// Analyzers returns the full lsmlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SliceRetain,
		LockGuard,
		IKeyCmp,
		HotPath,
		ErrCheck,
		LockOrder,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
