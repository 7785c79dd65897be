package vfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineFilesGoThroughVFS keeps the seam whole: no non-test file of
// the packages that own the database's files refers to an os file
// function, and only the functions below name Default; the rest reach
// their files through the FS they were handed.
func TestEngineFilesGoThroughVFS(t *testing.T) {
	banned := map[string]bool{
		"Create": true, "Open": true, "OpenFile": true, "Remove": true, "Rename": true,
		"ReadDir": true, "ReadFile": true, "WriteFile": true, "MkdirAll": true, "Stat": true,
	}
	defaults := map[string]bool{
		"lsm.withDefaults":    true, // a nil Options.FS
		"core.Open":           true, // the one FS of a database
		"core.ReadDescriptor": true, // reads a database it does not open
		"wal.Create":          true, // a log outside any database
	}
	for _, pkg := range []string{"lsm", "wal", "core"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files in internal/%s", pkg)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			osName, vfsName := importName(f, "os"), importName(f, "leveldbpp/internal/vfs")
			for _, decl := range f.Decls {
				fn := "" // the declared function; none for a var
				if d, ok := decl.(*ast.FuncDecl); ok {
					fn = d.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch x, _ := sel.X.(*ast.Ident); {
					case x == nil:
					case x.Name == osName && banned[sel.Sel.Name]:
						t.Errorf("%s: os.%s bypasses vfs", fset.Position(sel.Pos()), sel.Sel.Name)
					case x.Name == vfsName && sel.Sel.Name == "Default" && !defaults[pkg+"."+fn]:
						t.Errorf("%s: vfs.Default outside the defaults; use the FS handed down", fset.Position(sel.Pos()))
					}
					return true
				})
			}
		}
	}
}

// importName returns the name f imports path under, "" if it does not.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value == strconv.Quote(path) {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return filepath.Base(path)
		}
	}
	return ""
}
