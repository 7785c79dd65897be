package lint

import (
	"go/token"
	"regexp"
	"testing"
)

// wantRE extracts the expectation regexp from a `// want "..."` comment.
var wantRE = regexp.MustCompile(`want "([^"]*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

// collectWants scans a loaded package for `// want "regexp"` comments.
func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// TestAnalyzersTestdata runs each analyzer over its testdata package and
// asserts that every `// want` expectation fires exactly once and that no
// unexpected diagnostics appear.
func TestAnalyzersTestdata(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkgs, err := Load(".", "./testdata/src/"+a.Name)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages, want 1", len(pkgs))
			}
			wants := collectWants(t, pkgs[0])
			if len(wants) == 0 {
				t.Fatalf("testdata package for %s has no // want expectations", a.Name)
			}
			diags := RunAnalyzers(pkgs, []*Analyzer{a})
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.hits++
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if w.hits != 1 {
					t.Errorf("%s:%d: want %q fired %d times, expected exactly once",
						w.file, w.line, w.re, w.hits)
				}
			}
		})
	}
}

// knownDirectives is every //lsm: word an analyzer reads. Any other word
// in non-test code is a typo (//lsm:hotpth silently turns hotpath off
// for that function) or a leftover of a deleted analyzer.
var knownDirectives = map[string]bool{
	"lsm:hotpath":   true,
	"lsm:locked":    true,
	"lsm:aliasok":   true,
	"lsm:allocok":   true,
	"lsm:errok":     true,
	"lsm:lockok":    true,
	"lsm:lockorder": true,
}

// TestRepoIsClean is the whole-repo smoke test: lsmlint ./... must report
// zero diagnostics, i.e. the codebase obeys its own invariants, and every
// //lsm: directive must be one an analyzer reads. Any finding here is
// either a bug to fix or a site to annotate — never a reason to weaken
// the analyzer.
func TestRepoIsClean(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; module layout changed?", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix the code or annotate the site (see package lint doc)", len(diags))
	}
	for _, pkg := range pkgs {
		for file, lines := range buildLineDirectives(pkg.Fset, pkg.Files) {
			for line, ds := range lines {
				for _, d := range ds {
					if !knownDirectives[d] {
						t.Errorf("%s:%d: unknown directive //%s; no analyzer reads it", file, line, d)
					}
				}
			}
		}
	}
}

// TestByName covers the CLI's analyzer lookup.
func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Errorf("ByName(nope) = non-nil")
	}
}

// TestDiagnosticString pins the file:line:col rendering the Makefile and
// editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "demo",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "boom",
	}
	if got, wantS := d.String(), "x.go:3:7: boom [demo]"; got != wantS {
		t.Errorf("String() = %q, want %q", got, wantS)
	}
}

// TestSuppression verifies the line-directive scanner independently of
// any analyzer.
func TestSuppression(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/sliceretain")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	pkg := pkgs[0]
	directives := buildLineDirectives(pkg.Fset, pkg.Files)
	found := false
	for _, lines := range directives {
		for _, ds := range lines {
			for _, d := range ds {
				if d == "lsm:aliasok" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatalf("no lsm:aliasok directive found in sliceretain testdata")
	}
}
