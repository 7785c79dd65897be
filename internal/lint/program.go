package lint

import (
	"fmt"
	"go/token"

	"leveldbpp/internal/lint/lockfacts"
)

// ProgramPass carries the whole loaded program through one
// whole-program analyzer: every type-checked package, the lockfacts
// call graph / lock-fact index built over them, and the merged //lsm:
// line-directive table (filenames are unique across packages, so the
// per-package maps merge without collisions).
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Prog     *lockfacts.Program

	diags          *[]Diagnostic
	lineDirectives map[string]map[int][]string
}

// newProgramPass builds the shared (analyzer-independent) parts of a
// ProgramPass once; RunAnalyzers stamps each analyzer onto a copy.
func newProgramPass(pkgs []*Package, diags *[]Diagnostic) *ProgramPass {
	pp := &ProgramPass{
		Pkgs:           pkgs,
		diags:          diags,
		lineDirectives: map[string]map[int][]string{},
	}
	var facts []*lockfacts.Pkg
	for _, pkg := range pkgs {
		pp.Fset = pkg.Fset
		facts = append(facts, &lockfacts.Pkg{
			Path:  pkg.ImportPath,
			Fset:  pkg.Fset,
			Files: pkg.Files,
			Info:  pkg.Info,
		})
		for file, lines := range buildLineDirectives(pkg.Fset, pkg.Files) {
			pp.lineDirectives[file] = lines
		}
	}
	pp.Prog = lockfacts.Build(facts)
	return pp
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// SuppressedAt reports whether a comment on pos's line (in any loaded
// package) carries the given directive.
func (p *ProgramPass) SuppressedAt(pos token.Pos, directive string) bool {
	position := p.Fset.Position(pos)
	return hasDirective(p.lineDirectives[position.Filename], position.Line, directive)
}
